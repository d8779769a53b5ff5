//! A small, strict HTTP/1.1 request parser and response writer stack.
//!
//! Covers exactly what the query server needs: an incremental
//! request-head parser ([`parse_head`]: request line + headers,
//! `Content-Length` body framing, `Expect: 100-continue` detection —
//! the event loop reads the body), query-string splitting, keep-alive
//! negotiation, fixed-length JSON responses for small bodies, and a
//! [`ChunkedWriter`] transfer-encoding adapter for streamed ones.
//! Everything body-shaped takes `impl Write`, not `TcpStream`, so the
//! writer stack composes (`json → gzip → chunked → socket`) and tests
//! run against byte buffers. Limits are hard-coded defensively (8 KiB
//! of headers, 1 MiB of body) since request bodies are small control
//! messages — responses are the large direction.

use std::io::Write;

/// Maximum accepted size of the request line plus all headers.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Maximum accepted request body size.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path without the query string (e.g. `/datasets/x/slg`).
    pub path: String,
    /// Query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names, in order of appearance.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
    /// True when the request line declared `HTTP/1.0` (affects the
    /// keep-alive default).
    pub http10: bool,
}

impl Request {
    /// The request's parameters as a [`Params`] view.
    pub fn params(&self) -> Params<'_> {
        Params(&self.query)
    }

    /// First non-empty value of query parameter `name`, if present. An
    /// empty value (`?s=`) counts as absent, so defaults apply instead of
    /// failing to parse the empty string.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.params().get(name)
    }

    /// Parses query parameter `name`, falling back to `default` when
    /// absent; `Err` carries a client-facing message when malformed.
    pub fn query_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        self.params().parse_or(name, default)
    }

    /// First value of header `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == lower)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after this exchange:
    /// HTTP/1.1 defaults to keep-alive unless `Connection: close`;
    /// HTTP/1.0 defaults to close unless `Connection: keep-alive`.
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => !self.http10,
        }
    }
}

/// A borrowed view of `name=value` parameters, shared by the query
/// string of GET endpoints and the JSON sub-queries of `POST /query`
/// (whose scalar fields are rendered to the same string form). This is
/// the one place parameter semantics live: first occurrence wins, and an
/// **empty value counts as absent** so `?s=` falls back to the default
/// instead of failing to parse `""`.
#[derive(Debug, Clone, Copy)]
pub struct Params<'a>(pub &'a [(String, String)]);

impl<'a> Params<'a> {
    /// First non-empty value of parameter `name`, if present (empty
    /// occurrences are skipped entirely, so `?s=&s=3` resolves to `3`).
    pub fn get(&self, name: &str) -> Option<&'a str> {
        self.0
            .iter()
            .find(|(k, v)| k == name && !v.is_empty())
            .map(|(_, v)| v.as_str())
    }

    /// Parses parameter `name`, falling back to `default` when absent or
    /// empty; `Err` carries a client-facing message when malformed.
    pub fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("query parameter {name}={raw:?} is not a valid value")),
        }
    }
}

/// Why a request head could not be parsed.
#[derive(Debug)]
pub enum ParseError {
    /// The request was malformed; the message is client-facing.
    Malformed(String),
    /// The head parsed but the request must be refused with `status`,
    /// and the connection closed: its body bytes were **not** read, so
    /// continuing the keep-alive loop would parse them as the next
    /// request (a desync a client could exploit for request smuggling).
    Rejected {
        /// Response status (`400` oversized body, `417` unsupported
        /// expectation, `501` unsupported transfer coding).
        status: u16,
        /// Client-facing message.
        message: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Malformed(m) => write!(f, "malformed request: {m}"),
            ParseError::Rejected { status, message } => {
                write!(f, "rejected request ({status}): {message}")
            }
        }
    }
}

/// Percent-decodes one path segment, query key or query value: `%XX`
/// becomes the byte `0xXX` and `+` becomes a space (the form-encoding
/// clients and curl emit). Invalid escapes (`%`, `%2`, `%zz`) and
/// non-UTF-8 decoded bytes are rejected — silently passing them through
/// would mint distinct dataset names / cache keys for what the client
/// meant as one string.
pub fn percent_decode(raw: &str) -> Result<String, String> {
    if !raw.as_bytes().iter().any(|&b| b == b'%' || b == b'+') {
        return Ok(raw.to_string());
    }
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                // Require two hex *digits*: from_str_radix alone would
                // also accept sign-prefixed forms like "%+5".
                let hex = bytes
                    .get(i + 1..i + 3)
                    .filter(|pair| pair.iter().all(u8::is_ascii_hexdigit))
                    .and_then(|pair| std::str::from_utf8(pair).ok())
                    .and_then(|pair| u8::from_str_radix(pair, 16).ok())
                    .ok_or_else(|| format!("invalid percent escape in {raw:?}"))?;
                out.push(hex);
                i += 3;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| format!("percent escapes in {raw:?} are not UTF-8"))
}

/// Percent-decodes a request path segment by segment and re-joins with
/// `/`. Note this makes `%2F` routing-equivalent to a literal slash
/// (the decoded path is what [`crate::server`] splits into segments);
/// that is harmless here because no routable name may contain `/` —
/// dataset names are validated to `[A-Za-z0-9._-]` — so an encoded
/// slash can only ever produce the same route the literal spelling
/// would, never smuggle a separator into a name.
pub fn decode_path(raw: &str) -> Result<String, String> {
    let segments: Vec<String> = raw
        .split('/')
        .map(percent_decode)
        .collect::<Result<_, _>>()?;
    Ok(segments.join("/"))
}

/// Splits a raw query string (`a=1&b=two`) into pairs, percent-decoding
/// every key and value (`%XX` and `+`). Missing `=` yields an empty
/// value; invalid escapes are an error (answered with 400).
pub fn parse_query(raw: &str) -> Result<Vec<(String, String)>, String> {
    raw.split('&')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('=') {
            Some((k, v)) => Ok((percent_decode(k)?, percent_decode(v)?)),
            None => Ok((percent_decode(part)?, String::new())),
        })
        .collect()
}

/// A fully validated request head: everything decided before the body,
/// surfaced so the evented loop can act on it — read `body_len` more
/// bytes, and send the interim `100 Continue` first when
/// `expect_continue` is set.
pub struct ParsedHead {
    /// The parsed request, body still empty.
    pub request: Request,
    /// Body bytes the client declared (`Content-Length`, validated).
    pub body_len: usize,
    /// Whether the client awaits `100 Continue` before sending the
    /// body.
    pub expect_continue: bool,
}

/// The grammar and policy checks of a complete head, once
/// [`parse_head`] has split its lines: request-line shape, version,
/// path/query decoding, header syntax, and the body-framing rules
/// (transfer codings refused, duplicate or oversized `Content-Length`
/// rejected, `Expect` validated).
fn finish_head(request_line: &str, header_lines: Vec<String>) -> Result<ParsedHead, ParseError> {
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(ParseError::Malformed(format!(
            "bad request line {request_line:?}"
        )));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed(format!(
            "unsupported version {version:?}"
        )));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (
            decode_path(p).map_err(ParseError::Malformed)?,
            parse_query(q).map_err(ParseError::Malformed)?,
        ),
        None => (
            decode_path(target).map_err(ParseError::Malformed)?,
            Vec::new(),
        ),
    };
    let mut headers = Vec::new();
    for line in header_lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::Malformed(format!("bad header line {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let request = Request {
        method: method.to_ascii_uppercase(),
        path,
        query,
        headers,
        body: Vec::new(),
        http10: version == "HTTP/1.0",
    };
    // Request bodies with a transfer coding are not supported; ignoring
    // the header would leave the chunked body on the socket to be parsed
    // as the next request, so refuse and close (RFC 9112 §6.1 says
    // answer 501 for transfer codings the server does not understand).
    if request.header("transfer-encoding").is_some() {
        return Err(ParseError::Rejected {
            status: 501,
            message: "transfer-encoding request bodies are not supported".into(),
        });
    }
    // Duplicate Content-Length headers are the classic request-smuggling
    // ambiguity: two in-path parsers disagreeing on which one frames the
    // body desynchronize. Reject outright rather than pick one.
    if request
        .headers
        .iter()
        .filter(|(k, _)| k == "content-length")
        .count()
        > 1
    {
        return Err(ParseError::Malformed(
            "multiple content-length headers".into(),
        ));
    }
    let expect = request.header("expect").map(str::to_string);
    if let Some(expect) = &expect {
        if !expect.eq_ignore_ascii_case("100-continue") {
            return Err(ParseError::Rejected {
                status: 417,
                message: format!("unsupported expectation {expect:?}"),
            });
        }
    }
    let mut body_len = 0;
    if let Some(len) = request.header("content-length") {
        let len: usize = len
            .parse()
            .map_err(|_| ParseError::Malformed(format!("bad content-length {len:?}")))?;
        if len > MAX_BODY_BYTES {
            // The body was not (and must not be) read: the caller must
            // close, or its bytes would be parsed as the next pipelined
            // request.
            return Err(ParseError::Rejected {
                status: 400,
                message: "body exceeds 1 MiB".into(),
            });
        }
        body_len = len;
    }
    // A 100-continue client sends nothing until told to proceed. 1xx
    // responses predate HTTP/1.1: a 1.0 client would read one as the
    // final response, so it never gets one.
    let expect_continue = body_len > 0 && expect.is_some() && !request.http10;
    Ok(ParsedHead {
        request,
        body_len,
        expect_continue,
    })
}

/// Incrementally parses a request head out of `buf` (the evented
/// loop's per-connection inbound buffer).
///
/// * `Ok(None)` — no complete head yet; accumulate more bytes (the
///   8 KiB head budget is enforced while the head is still partial, so
///   a newline-less or header-dribbling flood fails fast).
/// * `Ok(Some((head, consumed)))` — a complete, validated head occupied
///   `buf[..consumed]`; the remainder is body bytes and/or pipelined
///   requests.
/// * `Err` — the head is malformed ([`ParseError::Malformed`], answered
///   400) or must be refused with a status ([`ParseError::Rejected`]);
///   either way the connection closes after the answer.
pub fn parse_head(buf: &[u8]) -> Result<Option<(ParsedHead, usize)>, ParseError> {
    let mut request_line: Option<String> = None;
    let mut header_lines: Vec<String> = Vec::new();
    let mut pos = 0;
    loop {
        let Some(newline) = buf[pos..].iter().position(|&b| b == b'\n') else {
            // No terminator yet: a partial head may not outgrow the
            // budget while waiting for one.
            if buf.len() >= MAX_HEAD_BYTES {
                return Err(ParseError::Malformed("headers exceed 8 KiB".into()));
            }
            return Ok(None);
        };
        let line_end = pos + newline + 1;
        if line_end > MAX_HEAD_BYTES {
            return Err(ParseError::Malformed("headers exceed 8 KiB".into()));
        }
        let mut line_bytes = &buf[pos..pos + newline];
        while line_bytes.last() == Some(&b'\r') {
            line_bytes = &line_bytes[..line_bytes.len() - 1];
        }
        let line = std::str::from_utf8(line_bytes)
            .map_err(|_| ParseError::Malformed("non-UTF-8 header bytes".into()))?
            .to_string();
        pos = line_end;
        match &request_line {
            None => request_line = Some(line),
            Some(_) if line.is_empty() => break,
            Some(_) => header_lines.push(line),
        }
    }
    let Some(request_line) = request_line else {
        return Ok(None);
    };
    let head = finish_head(&request_line, header_lines)?;
    Ok(Some((head, pos)))
}

/// Reason phrase for the status codes the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        100 => "Continue",
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        417 => "Expectation Failed",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Whether the client accepts a gzip response body: `Accept-Encoding`
/// lists `gzip` (case-insensitively) with a nonzero quality. Only an
/// explicit listing opts in — `*` is ignored, so clients that never
/// asked keep getting identity bodies.
pub fn accepts_gzip(request: &Request) -> bool {
    let Some(value) = request.header("accept-encoding") else {
        return false;
    };
    value.split(',').any(|entry| {
        let mut parts = entry.trim().split(';');
        if !parts
            .next()
            .is_some_and(|token| token.trim().eq_ignore_ascii_case("gzip"))
        {
            return false;
        }
        for param in parts {
            // Parameter names are case-insensitive (RFC 9110 §5.6.6):
            // `Q=0` refuses exactly like `q=0`.
            if let Some((name, value)) = param.split_once('=') {
                if name.trim().eq_ignore_ascii_case("q") {
                    return value.trim().parse::<f64>().is_ok_and(|q| q > 0.0);
                }
            }
        }
        true
    })
}

/// The `content-type` of every JSON response.
pub const CONTENT_TYPE_JSON: &str = "application/json";

/// The `content-type` of Prometheus text exposition format 0.0.4
/// (`GET /metrics?format=prometheus`).
pub const CONTENT_TYPE_PROMETHEUS: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Writes a response head: status line, the given `content-type`, any
/// `extra` headers (framing: `content-length`, `transfer-encoding`,
/// `content-encoding`), `connection`, and the terminating blank line.
pub fn write_response_head(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    keep_alive: bool,
    extra: &[(&str, &str)],
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\n",
        reason(status)
    )?;
    for (name, value) in extra {
        write!(stream, "{name}: {value}\r\n")?;
    }
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(stream, "connection: {connection}\r\n\r\n")
}

/// Writes a fixed-length response with a JSON body (the fast path for
/// small bodies; large ones stream through [`ChunkedWriter`]).
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let length = body.len().to_string();
    write_response_head(
        stream,
        status,
        CONTENT_TYPE_JSON,
        keep_alive,
        &[("content-length", &length)],
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Writes a headers-only response carrying the `content-length` the
/// equivalent GET body would have — the HEAD half of every GET route.
pub fn write_head_response(
    stream: &mut impl Write,
    status: u16,
    content_length: u64,
    keep_alive: bool,
) -> std::io::Result<()> {
    let length = content_length.to_string();
    write_response_head(
        stream,
        status,
        CONTENT_TYPE_JSON,
        keep_alive,
        &[("content-length", &length)],
    )?;
    stream.flush()
}

/// Payload bytes buffered per `Transfer-Encoding: chunked` frame.
pub const CHUNK_BYTES: usize = 16 * 1024;

/// A `Transfer-Encoding: chunked` framing adapter over any [`Write`]:
/// buffered bytes are emitted as `SIZE\r\nPAYLOAD\r\n` frames of up to
/// [`CHUNK_BYTES`], and [`ChunkedWriter::finish`] writes the terminal
/// zero-length chunk. This is what lets a response start before its
/// length is known — the body renders straight from cached artifacts
/// with O(1) buffering instead of into a body-sized `String`.
pub struct ChunkedWriter<W: Write> {
    inner: W,
    buf: Vec<u8>,
}

impl<W: Write> ChunkedWriter<W> {
    /// Wraps `inner`; the response head (with `transfer-encoding:
    /// chunked`) must already be written.
    pub fn new(inner: W) -> Self {
        Self {
            inner,
            buf: Vec::with_capacity(CHUNK_BYTES),
        }
    }

    fn flush_chunk(&mut self) -> std::io::Result<()> {
        if self.buf.is_empty() {
            // A zero-size chunk would terminate the body.
            return Ok(());
        }
        write!(self.inner, "{:x}\r\n", self.buf.len())?;
        self.inner.write_all(&self.buf)?;
        self.inner.write_all(b"\r\n")?;
        self.buf.clear();
        Ok(())
    }

    /// Flushes the pending chunk, writes the terminal `0\r\n\r\n`, and
    /// returns the inner writer. Skipping this truncates the body (which
    /// chunked clients detect — unlike a close-delimited body).
    pub fn finish(mut self) -> std::io::Result<W> {
        self.flush_chunk()?;
        self.inner.write_all(b"0\r\n\r\n")?;
        self.inner.flush()?;
        Ok(self.inner)
    }
}

impl<W: Write> Write for ChunkedWriter<W> {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        // Fill to the frame size and emit, so a single large write still
        // produces bounded frames (and bounded buffering).
        let mut rest = data;
        while !rest.is_empty() {
            let room = CHUNK_BYTES - self.buf.len();
            let take = room.min(rest.len());
            self.buf.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.buf.len() >= CHUNK_BYTES {
                self.flush_chunk()?;
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.flush_chunk()?;
        self.inner.flush()
    }
}

/// Reassembles a chunked body's payload bytes — the strict inverse of
/// [`ChunkedWriter`], shared by the integration tests and the
/// `server_smoke` benchmark (the same role `gzip::decode` plays for
/// compressed bodies). Requires well-formed framing: hex size lines,
/// `\r\n` chunk terminators, a terminal zero chunk, and nothing after
/// its final CRLF.
pub fn dechunk(mut body: &[u8]) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    loop {
        let line_end = body
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or_else(|| "missing chunk-size line".to_string())?;
        let size = std::str::from_utf8(&body[..line_end])
            .ok()
            .and_then(|line| usize::from_str_radix(line.trim(), 16).ok())
            .ok_or_else(|| "bad chunk-size line".to_string())?;
        body = &body[line_end + 2..];
        if size == 0 {
            return if body == b"\r\n" {
                Ok(out)
            } else {
                Err("bytes after the terminal chunk".to_string())
            };
        }
        let payload = body
            .get(..size)
            .ok_or_else(|| "truncated chunk payload".to_string())?;
        out.extend_from_slice(payload);
        if body.get(size..size + 2) != Some(b"\r\n") {
            return Err("missing chunk payload terminator".to_string());
        }
        body = &body[size + 2..];
    }
}

/// A [`Write`] that only counts bytes — how HEAD answers compute the
/// exact `content-length` of a streamed body without allocating it.
#[derive(Debug, Default)]
pub struct CountingWriter(u64);

impl CountingWriter {
    /// Bytes written so far.
    pub fn bytes(&self) -> u64 {
        self.0
    }
}

impl Write for CountingWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.0 += data.len() as u64;
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The request of a complete head (its body, if any, not attached).
    fn parse(text: &str) -> Result<Request, ParseError> {
        let (head, _) = parse_head(text.as_bytes())?.expect("complete head");
        Ok(head.request)
    }

    #[test]
    fn parses_get_with_query() {
        let r = parse("GET /datasets/x/slg?s=3&weighted=1 HTTP/1.1\r\nHost: a\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/datasets/x/slg");
        assert_eq!(r.query_param("s"), Some("3"));
        assert_eq!(r.query_param("weighted"), Some("1"));
        assert_eq!(r.query_param("missing"), None);
        assert_eq!(r.header("host"), Some("a"));
        assert!(r.keep_alive(), "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /datasets?name=z HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello";
        let (head, consumed) = parse_head(raw).unwrap().expect("complete head");
        assert_eq!(head.request.method, "POST");
        assert_eq!(head.body_len, 5);
        assert_eq!(&raw[consumed..], b"hello");
    }

    #[test]
    fn connection_close_header_disables_keep_alive() {
        let r = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!r.keep_alive());
        let r = parse("GET / HTTP/1.1\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(r.keep_alive());
    }

    #[test]
    fn http10_defaults_to_close() {
        let r = parse("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(r.http10);
        assert!(!r.keep_alive(), "HTTP/1.0 default is close");
        let r = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(r.keep_alive(), "explicit keep-alive opts in");
    }

    #[test]
    fn query_string_forms() {
        assert_eq!(
            parse_query("a=1&b=&c&a=2").unwrap(),
            vec![
                ("a".into(), "1".into()),
                ("b".into(), String::new()),
                ("c".into(), String::new()),
                ("a".into(), "2".into()),
            ]
        );
        assert!(parse_query("").unwrap().is_empty());
    }

    #[test]
    fn query_or_parses_with_default() {
        let r = parse("GET /x?s=4 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.query_or("s", 2u32), Ok(4));
        assert_eq!(r.query_or("top", 10usize), Ok(10));
        assert!(r.query_or::<u32>("s", 2).is_ok());
        let r = parse("GET /x?s=banana HTTP/1.1\r\n\r\n").unwrap();
        assert!(r.query_or::<u32>("s", 2).is_err());
    }

    #[test]
    fn empty_query_value_counts_as_absent() {
        // `?s=` must fall back to the default, not fail to parse "".
        let r = parse("GET /x?s=&top=7 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.query_param("s"), None);
        assert_eq!(r.query_or("s", 2u32), Ok(2));
        assert_eq!(r.query_or("top", 10usize), Ok(7));
        // Empty occurrences are skipped, not short-circuited: a later
        // non-empty occurrence wins.
        let r = parse("GET /x?s=&s=3 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.query_param("s"), Some("3"));
        assert_eq!(r.query_or("s", 2u32), Ok(3));
    }

    #[test]
    fn percent_decoding_roundtrips() {
        assert_eq!(percent_decode("plain").unwrap(), "plain");
        assert_eq!(percent_decode("a%20b").unwrap(), "a b");
        assert_eq!(percent_decode("a+b").unwrap(), "a b");
        assert_eq!(percent_decode("100%25").unwrap(), "100%");
        assert_eq!(percent_decode("h%C3%A9llo").unwrap(), "héllo");
        // `%+5` / `%-5` must not sneak through via from_str_radix's
        // tolerance for sign prefixes.
        for bad in ["%", "%2", "%zz", "%ff", "%+5", "%-5", "% 1"] {
            assert!(percent_decode(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn request_paths_and_queries_are_decoded() {
        let r = parse("GET /datasets/my%20set/slg?s=%32&x=a+b HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.path, "/datasets/my set/slg");
        assert_eq!(r.query_or("s", 0u32), Ok(2));
        assert_eq!(r.query_param("x"), Some("a b"));
        // An encoded slash adds a path segment; it cannot hide in one.
        let r = parse("GET /datasets/a%2Fb/slg HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.path, "/datasets/a/b/slg");
        // Invalid escapes are a 400, not a silent passthrough.
        assert!(matches!(
            parse("GET /datasets/a%zz/slg HTTP/1.1\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET /x?bad=%f HTTP/1.1\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
    }

    #[test]
    fn response_shape() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "{\"ok\":true}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
        let mut out = Vec::new();
        write_response(&mut out, 404, "{}", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("connection: close\r\n"));
    }

    #[test]
    fn head_response_has_length_but_no_body() {
        let mut out = Vec::new();
        write_head_response(&mut out, 200, 1234, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("content-length: 1234\r\n"));
        assert!(text.ends_with("\r\n\r\n"), "no body after the head: {text}");
    }

    #[test]
    fn chunked_writer_frames_and_terminates() {
        let mut chunked = ChunkedWriter::new(Vec::new());
        chunked.write_all(b"hello ").unwrap();
        chunked.write_all(b"world").unwrap();
        let out = chunked.finish().unwrap();
        assert_eq!(out, b"b\r\nhello world\r\n0\r\n\r\n");
        // Empty body: just the terminal chunk.
        let out = ChunkedWriter::new(Vec::new()).finish().unwrap();
        assert_eq!(out, b"0\r\n\r\n");
        // Large writes split at the chunk size: one full frame, and the
        // remainder rides the terminal flush.
        let mut chunked = ChunkedWriter::new(Vec::new());
        chunked.write_all(&vec![b'x'; CHUNK_BYTES + 3]).unwrap();
        let out = chunked.finish().unwrap();
        let text = String::from_utf8(out.clone()).unwrap();
        assert!(text.starts_with(&format!("{CHUNK_BYTES:x}\r\n")));
        assert!(text.contains("\r\n3\r\nxxx\r\n0\r\n\r\n"));
        assert_eq!(dechunk(&out).unwrap(), vec![b'x'; CHUNK_BYTES + 3]);
        // An explicit flush mid-stream emits a frame without terminating.
        let mut chunked = ChunkedWriter::new(Vec::new());
        chunked.write_all(b"ab").unwrap();
        chunked.flush().unwrap();
        chunked.write_all(b"cd").unwrap();
        let out = chunked.finish().unwrap();
        assert_eq!(out, b"2\r\nab\r\n2\r\ncd\r\n0\r\n\r\n");
        assert_eq!(dechunk(&out).unwrap(), b"abcd");
    }

    #[test]
    fn dechunk_rejects_malformed_framing() {
        for bad in [
            b"nope".as_slice(),
            b"5\r\nhello",               // missing payload terminator
            b"5\r\nhello\r\n",           // missing terminal chunk
            b"zz\r\nhello\r\n0\r\n\r\n", // bad size line
            b"0\r\n\r\nextra",           // bytes after the terminal chunk
        ] {
            assert!(dechunk(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn counting_writer_counts() {
        let mut counter = CountingWriter::default();
        counter.write_all(b"hello").unwrap();
        counter.write_all(b" world").unwrap();
        assert_eq!(counter.bytes(), 11);
    }

    #[test]
    fn parse_head_resumes_across_arbitrary_splits() {
        let raw = b"POST /datasets?name=z HTTP/1.1\r\nHost: a\r\ncontent-length: 5\r\n\r\nhello";
        // Every prefix that ends before the blank line is "keep going".
        let head_end = raw.len() - 5;
        for cut in 0..head_end {
            assert!(
                parse_head(&raw[..cut]).unwrap().is_none(),
                "prefix of {cut} bytes parsed early"
            );
        }
        // From the blank line on, the head parses and `consumed` pins
        // the body boundary regardless of how much tail arrived.
        for cut in head_end..=raw.len() {
            let (head, consumed) = parse_head(&raw[..cut]).unwrap().expect("complete head");
            assert_eq!(consumed, head_end);
            assert_eq!(head.request.method, "POST");
            assert_eq!(head.request.path, "/datasets");
            assert_eq!(head.request.query_param("name"), Some("z"));
            assert_eq!(head.request.header("host"), Some("a"));
            assert_eq!(head.body_len, 5);
            assert!(!head.expect_continue);
        }
    }

    #[test]
    fn parse_head_leaves_pipelined_tail() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let (head, consumed) = parse_head(raw).unwrap().expect("complete head");
        assert_eq!(head.request.path, "/a");
        assert_eq!(head.body_len, 0);
        let (next, tail_consumed) = parse_head(&raw[consumed..]).unwrap().expect("second head");
        assert_eq!(next.request.path, "/b");
        assert_eq!(consumed + tail_consumed, raw.len());
    }

    #[test]
    fn parse_head_flags_expect_continue() {
        let raw = b"POST / HTTP/1.1\r\nexpect: 100-continue\r\ncontent-length: 2\r\n\r\n";
        let (head, _) = parse_head(raw).unwrap().expect("complete head");
        assert!(head.expect_continue);
        // The expectation value is case-insensitive.
        let raw = b"POST / HTTP/1.1\r\nExpect: 100-Continue\r\ncontent-length: 2\r\n\r\n";
        let (head, _) = parse_head(raw).unwrap().expect("complete head");
        assert!(head.expect_continue);
        // No body declared: nothing to invite.
        let raw = b"GET / HTTP/1.1\r\nexpect: 100-continue\r\n\r\n";
        let (head, _) = parse_head(raw).unwrap().expect("complete head");
        assert!(!head.expect_continue);
        // 1xx responses must never go to an HTTP/1.0 client.
        let raw = b"POST / HTTP/1.0\r\nexpect: 100-continue\r\ncontent-length: 2\r\n\r\n";
        let (head, _) = parse_head(raw).unwrap().expect("complete head");
        assert!(!head.expect_continue);
    }

    #[test]
    fn parse_head_rejects_malformed_and_refused_heads() {
        assert!(matches!(
            parse_head(b"NOT-HTTP\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse_head(b"GET / SPDY/9\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse_head(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse_head(b"GET / HTTP/1.1\r\nx: \xff\xfe\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse_head(b"POST / HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 3\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse_head(b"GET / HTTP/1.1\r\ncontent-length: wat\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse_head(b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"),
            Err(ParseError::Rejected { status: 501, .. })
        ));
        assert!(matches!(
            parse_head(b"POST / HTTP/1.1\r\nexpect: teleport\r\ncontent-length: 2\r\n\r\n"),
            Err(ParseError::Rejected { status: 417, .. })
        ));
        let oversized = format!(
            "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse_head(oversized.as_bytes()),
            Err(ParseError::Rejected { status: 400, .. })
        ));
    }

    /// A request of one of the shapes the event loop meets, varied by
    /// `pick`: 0 valid, 1 pipelined, 2 with a body, 3 malformed, 4
    /// refused (417, 501, oversized body), 5 head over budget.
    fn sample_head(shape: usize, pick: usize) -> Vec<u8> {
        let eol = if pick.is_multiple_of(2) { "\r\n" } else { "\n" };
        let head = |lines: &[&str]| -> Vec<u8> {
            let mut out: String = lines.iter().map(|l| format!("{l}{eol}")).collect();
            out.push_str(eol);
            out.into_bytes()
        };
        let target = format!("GET /d{pick}/slg?s={}&limit=5 HTTP/1.1", pick % 9 + 1);
        let get = head(&[&target, &format!("host: h{pick}")]);
        match shape {
            0 => get,
            1 => [get.clone(), get].concat(),
            2 => {
                let body = "b".repeat(pick % 7);
                let version = if pick.is_multiple_of(3) { "1.0" } else { "1.1" };
                let expect = ["expect: 100-continue", "x-pick: 1"][pick / 2 % 2];
                let length = format!("content-length: {}", body.len());
                let request = format!("POST /query HTTP/{version}");
                [head(&[&request, expect, &length]), body.into_bytes()].concat()
            }
            3 => match pick % 7 {
                0 => head(&["NOT-HTTP"]),
                1 => head(&["GET / SPDY/9"]),
                2 => head(&["GET / HTTP/1.1", "no-colon-here"]),
                3 => head(&["GET /%zz HTTP/1.1"]),
                4 => head(&["POST / HTTP/1.1", "content-length: 2", "content-length: 3"]),
                5 => head(&["GET / HTTP/1.1", "content-length: wat"]),
                _ => b"GET / HTTP/1.1\r\nx: \xff\r\n\r\n".to_vec(),
            },
            4 => match pick % 3 {
                0 => head(&["POST / HTTP/1.1", "expect: teleport", "content-length: 2"]),
                1 => head(&["POST / HTTP/1.1", "transfer-encoding: chunked"]),
                _ => head(&[
                    "POST / HTTP/1.1",
                    &format!("content-length: {}", MAX_BODY_BYTES + 1),
                ]),
            },
            _ => match pick % 3 {
                0 => head(&[
                    "GET / HTTP/1.1",
                    &format!("x: {}", "a".repeat(MAX_HEAD_BYTES)),
                ]),
                1 => {
                    // Each line fits the budget; together they overflow it.
                    let many: Vec<String> = (0..MAX_HEAD_BYTES / 8)
                        .map(|i| format!("x{i}: 0123"))
                        .collect();
                    head(&["GET / HTTP/1.1", &many.join(eol)])
                }
                _ => vec![b'a'; MAX_HEAD_BYTES + pick],
            },
        }
    }

    /// A `parse_head` outcome, rendered for comparison.
    fn verdict(parsed: Result<Option<(ParsedHead, usize)>, ParseError>) -> String {
        match parsed {
            Ok(Some((head, consumed))) => format!(
                "{:?} body {} continue {} consumed {consumed}",
                head.request, head.body_len, head.expect_continue
            ),
            Ok(None) => "incomplete".to_string(),
            Err(e) => format!("{e:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The event loop re-parses its inbound buffer as bytes arrive:
        /// however they are split, the first verdict that is not "need
        /// more" is the one the whole buffer gives at once.
        #[test]
        fn parse_head_drip_fed_matches_the_whole_buffer(
            shape in 0usize..6,
            pick in 0usize..64,
            steps in vec((0u32..12).prop_flat_map(|b| 1usize..=1 << b), 1..24),
        ) {
            let raw = sample_head(shape, pick);
            let whole = verdict(parse_head(&raw));
            let class = ["Request", "Request", "Request", "Malformed", "Rejected", "Malformed"];
            prop_assert!(whole.starts_with(class[shape]), "shape {}: {}", shape, whole);
            let mut end = 0;
            let mut steps = steps.iter().cycle();
            let dripped = loop {
                end = (end + steps.next().expect("steps cycle")).min(raw.len());
                match parse_head(&raw[..end]) {
                    Ok(None) if end < raw.len() => {}
                    parsed => break verdict(parsed),
                }
            };
            prop_assert_eq!(dripped, whole, "shape {} pick {} cut at {}", shape, pick, end);
        }
    }

    #[test]
    fn parse_head_enforces_budget_on_partial_heads() {
        // A complete oversized head fails...
        let huge = format!(
            "GET / HTTP/1.1\r\nx: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        assert!(matches!(
            parse_head(huge.as_bytes()),
            Err(ParseError::Malformed(_))
        ));
        // ...and so does a newline-less flood still waiting for one.
        let flood = vec![b'a'; MAX_HEAD_BYTES];
        assert!(matches!(parse_head(&flood), Err(ParseError::Malformed(_))));
        // Under budget and incomplete: keep reading.
        assert!(parse_head(b"GET / HT").unwrap().is_none());
        assert!(parse_head(b"").unwrap().is_none());
    }

    #[test]
    fn accept_encoding_negotiation() {
        let with = |value: Option<&str>| {
            let mut r = parse("GET / HTTP/1.1\r\n\r\n").unwrap();
            if let Some(v) = value {
                r.headers
                    .push(("accept-encoding".to_string(), v.to_string()));
            }
            accepts_gzip(&r)
        };
        assert!(!with(None));
        assert!(with(Some("gzip")));
        assert!(with(Some("GZIP")), "token is case-insensitive");
        assert!(with(Some("deflate, gzip;q=0.5, br")));
        assert!(with(Some("gzip; q=1.0")));
        assert!(!with(Some("gzip;q=0")), "q=0 refuses gzip");
        assert!(!with(Some("gzip;q=0.0")));
        assert!(!with(Some("identity")));
        assert!(!with(Some("*")), "wildcard does not opt in");
        assert!(!with(Some("sgzip")), "substring is not a token match");
    }
}
