//! A hand-rolled, minimal HTTP/1.1 layer with persistent connections.
//!
//! The workspace builds hermetically (no hyper/axum), and the serving API
//! needs exactly one shape: small JSON-over-`POST`/`GET` exchanges. This
//! module implements that subset — request line, headers, `Content-Length`
//! body — with hard caps on header and body sizes so a misbehaving client
//! cannot balloon server memory, plus HTTP/1.1 keep-alive semantics:
//!
//! * both sides read through one [`BufReader`] per connection, refilled
//!   8 KiB at a time: a head is located by its blank line
//!   and parsed in place in the buffer (a head spanning refills is
//!   gathered first), and whatever follows it — the body, the next
//!   pipelined request or response — stays buffered for the next read;
//! * [`read_request`] distinguishes *one more request* from *the peer is
//!   done* (clean EOF, or silence past the idle timeout, before the first
//!   byte of a request → `Ok(None)`), so the server can loop reads on one
//!   socket and pipelined back-to-back requests parse one after another;
//! * every [`Request`] carries [`Request::keep_alive`] — the client's
//!   connection preference (HTTP/1.1 defaults to keep-alive, HTTP/1.0 to
//!   close, `Connection: keep-alive|close` overrides either);
//! * [`write_response`] assembles head and body into one buffer and sends
//!   it with one write, so a response leaves a `TCP_NODELAY` socket as one
//!   segment. Its [`ResponseOptions`] name whether the connection persists
//!   after this response (error responses that abort the connection
//!   always advertise `Connection: close`) and an optional `Retry-After`
//!   for load-shedding `429`s.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::time::{Duration, Instant};

/// Capacity of the per-connection read buffer on either side: one refill
/// holds any ordinary request or response head, and usually its body.
pub(crate) const READ_BUFFER_BYTES: usize = 8 * 1024;

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Wall-clock budget for reading one complete request *once its first byte
/// has arrived*. Socket read timeouts bound each *read call*, so a client
/// trickling one byte per timeout window could otherwise hold a connection
/// thread almost indefinitely; this deadline bounds the whole request
/// regardless of how the bytes arrive. (Silence *before* the first byte is
/// governed by the socket's idle timeout instead — see [`read_request`].)
const REQUEST_READ_DEADLINE: Duration = Duration::from_secs(60);

/// Upper bound on a request body. `/sweep` batches are the largest
/// legitimate payloads; 8 MiB is orders of magnitude above any real one.
const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// A parsed HTTP request: the subset the serving API dispatches on.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Request path, including any query string (the server strips the
    /// query before dispatching; no endpoint reads it).
    pub path: String,
    /// Decoded request body (empty when no `Content-Length` was sent).
    pub body: String,
    /// Whether the client allows the connection to persist after this
    /// request: HTTP/1.1 unless `Connection: close`, HTTP/1.0 only with
    /// `Connection: keep-alive`.
    pub keep_alive: bool,
    /// The client's per-request deadline from the `X-Deadline-Ms` header:
    /// how long (from arrival) the request is worth answering. The server
    /// answers `503` instead of evaluating a request whose deadline expired
    /// while it sat in the queue.
    pub deadline_ms: Option<u64>,
    /// Whether the client opted into per-request provenance
    /// (`X-Provenance: 1` or `true`): `/simulate` responses then carry a
    /// stage-by-stage timing breakdown.
    pub provenance: bool,
}

/// A problem reading or parsing a request, mapped to the HTTP status the
/// server should answer with (always on a closing connection — a parse
/// failure leaves the stream position undefined, so persisting is unsafe).
#[derive(Debug)]
pub struct HttpError {
    /// Status code to respond with (400 unless the failure is transport-level).
    pub status: u16,
    /// Human-readable description (returned in the JSON error body).
    pub message: String,
}

impl HttpError {
    fn bad_request(message: impl Into<String>) -> Self {
        Self {
            status: 400,
            message: message.into(),
        }
    }

    fn deadline() -> Self {
        Self {
            status: 408,
            message: "request not received within the read deadline".to_string(),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.message, self.status)
    }
}

/// Why [`read_head`] returned without a head.
#[derive(Debug)]
pub(crate) enum HeadError {
    /// No byte of a head arrived: `None` for a clean EOF, otherwise the
    /// read error (a timeout, a reset, ...).
    Nothing(Option<std::io::Error>),
    /// The peer closed part-way through a head.
    Truncated,
    /// The head outgrew its cap.
    TooLarge,
    /// The deadline, counted from the first byte, passed mid-head.
    Deadline,
    /// A read failed part-way through a head.
    Io(std::io::Error),
}

/// Byte offset of the blank line (`\r\n\r\n`) ending a head, if present.
fn blank_line(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|window| window == b"\r\n\r\n")
}

/// Reads one message head — everything before the blank line — from
/// `reader`, returning `parse` of it and the instant its first byte
/// arrived. The blank line is consumed; any bytes after it stay buffered.
///
/// A head that arrives within one refill (the common case) is parsed in
/// place in the reader's buffer. One that spans refills is gathered into a
/// scratch buffer first, never beyond `max_bytes` (blank line included).
/// With a `deadline`, the head must complete within that long of its
/// first byte; it is checked before every refill.
pub(crate) fn read_head<T>(
    reader: &mut impl BufRead,
    max_bytes: usize,
    deadline: Option<Duration>,
    parse: impl FnOnce(&[u8]) -> T,
) -> Result<(T, Instant), HeadError> {
    let mut gathered = Vec::new();
    let mut first_byte: Option<Instant> = None;
    loop {
        if let (Some(started), Some(deadline)) = (first_byte, deadline) {
            if started.elapsed() > deadline {
                return Err(HeadError::Deadline);
            }
        }
        let buffered = match reader.fill_buf() {
            Ok([]) if first_byte.is_none() => return Err(HeadError::Nothing(None)),
            Ok([]) => return Err(HeadError::Truncated),
            Ok(buffered) => buffered,
            Err(e) if first_byte.is_none() => return Err(HeadError::Nothing(Some(e))),
            Err(e) => return Err(HeadError::Io(e)),
        };
        let started = *first_byte.get_or_insert_with(Instant::now);
        if gathered.is_empty() {
            if let Some(end) = blank_line(buffered) {
                if end + 4 > max_bytes {
                    return Err(HeadError::TooLarge);
                }
                let parsed = parse(&buffered[..end]);
                reader.consume(end + 4);
                return Ok((parsed, started));
            }
        }
        // The head spans refills; the blank line may straddle the seam.
        let seen = gathered.len();
        let refill = buffered.len();
        gathered.extend_from_slice(buffered);
        let from = seen.saturating_sub(3);
        if seen > 0 {
            if let Some(end) = blank_line(&gathered[from..]).map(|at| from + at) {
                if end + 4 > max_bytes {
                    return Err(HeadError::TooLarge);
                }
                reader.consume(end + 4 - seen);
                gathered.truncate(end);
                return Ok((parse(&gathered), started));
            }
        }
        reader.consume(refill);
        if gathered.len() >= max_bytes {
            return Err(HeadError::TooLarge);
        }
    }
}

/// What a request head says, before the body is read.
struct RequestHead {
    method: String,
    path: String,
    keep_alive: bool,
    content_length: usize,
    expects_continue: bool,
    deadline_ms: Option<u64>,
    provenance: bool,
}

/// Parses a request head (blank line excluded).
fn parse_request_head(head: &[u8]) -> Result<RequestHead, HttpError> {
    let head = std::str::from_utf8(head)
        .map_err(|_| HttpError::bad_request("request head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_ascii_uppercase(), p.to_string(), v),
        _ => {
            return Err(HttpError::bad_request(format!(
                "malformed request line: {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError {
            status: 505,
            message: format!("unsupported protocol {version}"),
        });
    }
    let mut parsed = RequestHead {
        method,
        path,
        // HTTP/1.1 persists by default; HTTP/1.0 closes by default.
        keep_alive: version != "HTTP/1.0",
        content_length: 0,
        expects_continue: false,
        deadline_ms: None,
        provenance: false,
    };
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                parsed.content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| HttpError::bad_request("invalid Content-Length"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                // The header is a comma-separated token list ("close",
                // "keep-alive", sometimes "keep-alive, Upgrade").
                for token in value.split(',') {
                    let token = token.trim();
                    if token.eq_ignore_ascii_case("close") {
                        parsed.keep_alive = false;
                    } else if token.eq_ignore_ascii_case("keep-alive") {
                        parsed.keep_alive = true;
                    }
                }
            } else if name.eq_ignore_ascii_case("expect")
                && value.trim().eq_ignore_ascii_case("100-continue")
            {
                parsed.expects_continue = true;
            } else if name.eq_ignore_ascii_case("x-deadline-ms") {
                parsed.deadline_ms = Some(value.trim().parse::<u64>().map_err(|_| {
                    HttpError::bad_request("invalid X-Deadline-Ms (want milliseconds as a u64)")
                })?);
            } else if name.eq_ignore_ascii_case("x-provenance") {
                let value = value.trim();
                parsed.provenance = value == "1" || value.eq_ignore_ascii_case("true");
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                // Bodies are framed by Content-Length only; silently
                // treating a chunked body as empty would misreport a
                // well-formed request as a client error.
                return Err(HttpError {
                    status: 501,
                    message: format!(
                        "transfer-encoding {:?} is not supported; send Content-Length",
                        value.trim()
                    ),
                });
            }
        }
    }
    if parsed.content_length > MAX_BODY_BYTES {
        return Err(HttpError {
            status: 413,
            message: format!(
                "body of {} bytes exceeds the {MAX_BODY_BYTES} cap",
                parsed.content_length
            ),
        });
    }
    Ok(parsed)
}

/// Reads and parses one request from the connection's buffered `reader`.
///
/// Returns `Ok(None)` when the peer is cleanly done with the connection:
/// EOF, a reset, or read-timeout silence *before the first byte* of a
/// request. The caller arms the socket's read timeout as the keep-alive
/// idle timeout, so "no byte within the timeout" is an idle connection to
/// reap, not a client error. Once the first byte has arrived the request
/// must complete: timeouts and EOF mid-request are [`HttpError`]s (`408` /
/// `400`) answered on a closing connection.
///
/// Bytes after this request's body stay in `reader` and start the next
/// call, so pipelined requests parse back to back.
///
/// The underlying stream is also writable because `Expect: 100-continue`
/// clients (curl sends it for any body over ~1 KiB, e.g. a `/sweep` batch)
/// hold the body back until the server answers with an interim
/// `100 Continue` — without it every such request stalls for the client's
/// give-up timeout (~1 s in curl) before the body arrives.
///
/// # Errors
///
/// Returns an [`HttpError`] for malformed or oversized requests and for
/// transport failures after the request started arriving.
pub fn read_request<S: Read + Write>(
    reader: &mut BufReader<S>,
) -> Result<Option<Request>, HttpError> {
    // The overall deadline starts at the first byte, not at idle-wait
    // entry: a connection may legitimately sit idle (bounded by the
    // socket's own read timeout) between keep-alive requests.
    let (head, first_byte) = match read_head(
        reader,
        MAX_HEAD_BYTES,
        Some(REQUEST_READ_DEADLINE),
        parse_request_head,
    ) {
        Ok((head, first_byte)) => (head?, first_byte),
        Err(HeadError::Nothing(None)) => return Ok(None), // clean keep-alive close
        Err(HeadError::Nothing(Some(e))) => {
            return match e.kind() {
                // Idle-timeout silence between requests: reap quietly.
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => Ok(None),
                // A reset with nothing sent is a vanished client, not a
                // request worth answering.
                std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::ConnectionAborted => {
                    Ok(None)
                }
                _ => Err(read_error("request", &e)),
            };
        }
        Err(HeadError::Truncated) => {
            return Err(HttpError::bad_request("connection closed mid-head"))
        }
        Err(HeadError::TooLarge) => {
            return Err(HttpError {
                status: 431,
                message: "request head too large".to_string(),
            })
        }
        Err(HeadError::Deadline) => return Err(HttpError::deadline()),
        Err(HeadError::Io(e)) => return Err(read_error("request", &e)),
    };
    if head.expects_continue && head.content_length > 0 {
        let stream = reader.get_mut();
        stream
            .write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
            .and_then(|()| stream.flush())
            .map_err(|e| HttpError::bad_request(format!("answering 100-continue: {e}")))?;
    }

    // Read the body in bounded slices so the overall deadline applies to
    // trickled bodies too (a single read_exact would only be bounded by
    // the per-read socket timeout, reset on every byte). Whatever of it
    // arrived with the head is served from the buffer.
    let deadline = first_byte + REQUEST_READ_DEADLINE;
    let mut body = vec![0u8; head.content_length];
    let mut filled = 0usize;
    while filled < body.len() {
        if Instant::now() > deadline {
            return Err(HttpError::deadline());
        }
        let end = (filled + READ_BUFFER_BYTES).min(body.len());
        match reader.read(&mut body[filled..end]) {
            Ok(0) => return Err(HttpError::bad_request("connection closed mid-body")),
            Ok(n) => filled += n,
            Err(e) => return Err(read_error("request body", &e)),
        }
    }
    let body = String::from_utf8(body).map_err(|_| HttpError::bad_request("body is not UTF-8"))?;
    Ok(Some(Request {
        method: head.method,
        path: head.path,
        body,
        keep_alive: head.keep_alive,
        deadline_ms: head.deadline_ms,
        provenance: head.provenance,
    }))
}

/// Classifies a transport read failure: a socket-timeout expiry (the server
/// arms read timeouts on every connection) is the client going silent — a
/// 408, with no OS error text leaked — while anything else is a 400.
fn read_error(what: &str, e: &std::io::Error) -> HttpError {
    if matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    ) {
        HttpError {
            status: 408,
            message: format!("timed out reading the {what}"),
        }
    } else {
        HttpError::bad_request(format!("reading {what}: {e}"))
    }
}

/// The reason phrase for the handful of statuses the server produces.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// How a response frames the connection's future (and any extra headers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseOptions {
    /// `true` → `Connection: keep-alive` (the socket stays open for the
    /// next request); `false` → `Connection: close` (the caller closes
    /// after writing). Error responses that abort the connection must use
    /// `false` so clients do not wait on a dead socket.
    pub keep_alive: bool,
    /// Advisory `Retry-After: <seconds>` header — set on load-shedding
    /// `429` responses so well-behaved clients back off.
    pub retry_after_seconds: Option<u32>,
    /// `Content-Type` override. `None` (every JSON endpoint) sends
    /// `application/json`; `GET /metrics` sends the Prometheus text type.
    pub content_type: Option<&'static str>,
}

impl ResponseOptions {
    /// A closing response (the PR-5 default; also every aborting error).
    pub fn close() -> Self {
        Self {
            keep_alive: false,
            retry_after_seconds: None,
            content_type: None,
        }
    }

    /// A persistent-connection response.
    pub fn keep_alive() -> Self {
        Self {
            keep_alive: true,
            retry_after_seconds: None,
            content_type: None,
        }
    }

    /// Adds a `Retry-After` header (load-shedding `429`s).
    pub fn with_retry_after(mut self, seconds: u32) -> Self {
        self.retry_after_seconds = Some(seconds);
        self
    }

    /// Overrides the `Content-Type` header (Prometheus exposition).
    pub fn with_content_type(mut self, content_type: &'static str) -> Self {
        self.content_type = Some(content_type);
        self
    }
}

/// Writes a complete response with the given connection framing. Head and
/// body go out in one `write_all` of one buffer: on a `TCP_NODELAY` socket
/// two writes would send two segments and wake the peer twice.
///
/// # Errors
///
/// Propagates transport errors (callers log and drop the connection).
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    body: &str,
    options: ResponseOptions,
) -> std::io::Result<()> {
    let mut message = String::with_capacity(160 + body.len());
    // Formatting into a `String` cannot fail.
    let _ = write!(
        message,
        "HTTP/1.1 {status} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        reason_phrase(status),
        options.content_type.unwrap_or("application/json"),
        body.len(),
    );
    if let Some(seconds) = options.retry_after_seconds {
        let _ = write!(message, "Retry-After: {seconds}\r\n");
    }
    message.push_str(if options.keep_alive {
        "Connection: keep-alive\r\n\r\n"
    } else {
        "Connection: close\r\n\r\n"
    });
    message.push_str(body);
    stream.write_all(message.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A test stream: reads from a fixed script, captures writes separately
    /// (a plain `Cursor` would splice interim responses into the input).
    /// `chunks` caps each read at 1, 2, 3, 1, 2, 3, ... bytes when set, and
    /// `then_timeout` makes the end of the script a read timeout, not EOF.
    struct FakeStream {
        input: Cursor<Vec<u8>>,
        written: Vec<u8>,
        chunks: bool,
        reads: usize,
        then_timeout: bool,
    }

    impl FakeStream {
        fn new(raw: &str) -> Self {
            Self {
                input: Cursor::new(raw.as_bytes().to_vec()),
                written: Vec::new(),
                chunks: false,
                reads: 0,
                then_timeout: false,
            }
        }
    }

    impl Read for FakeStream {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let len = if self.chunks {
                buf.len().min(1 + (self.reads - 1) % 3)
            } else {
                buf.len()
            };
            let n = self.input.read(&mut buf[..len])?;
            if n == 0 && self.then_timeout {
                return Err(std::io::ErrorKind::TimedOut.into());
            }
            Ok(n)
        }
    }

    impl Write for FakeStream {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The connection's buffered reader over a scripted stream.
    fn stream(raw: &str) -> BufReader<FakeStream> {
        BufReader::with_capacity(READ_BUFFER_BYTES, FakeStream::new(raw))
    }

    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        read_request(&mut stream(raw))
    }

    fn parse_one(raw: &str) -> Request {
        parse(raw).unwrap().expect("a complete request")
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse_one(
            "POST /simulate HTTP/1.1\r\nHost: x\r\nContent-Length: 18\r\n\r\n{\"dataset\":\"cora\"}",
        );
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/simulate");
        assert_eq!(req.body, "{\"dataset\":\"cora\"}");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_get_without_body_and_normalises_method_case() {
        let req = parse_one("get /stats HTTP/1.0\r\nHost: x\r\n\r\n");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/stats");
        assert_eq!(req.body, "");
        assert!(!req.keep_alive, "HTTP/1.0 defaults to close");
    }

    #[test]
    fn connection_header_overrides_the_version_default() {
        let req = parse_one("GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!req.keep_alive);
        let req = parse_one("GET /stats HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(req.keep_alive);
        // Token lists and arbitrary case both resolve.
        let req = parse_one("GET /stats HTTP/1.1\r\nConnection: Keep-Alive, Upgrade\r\n\r\n");
        assert!(req.keep_alive);
        let req = parse_one("GET /stats HTTP/1.1\r\nCoNnEcTiOn: CLOSE\r\n\r\n");
        assert!(!req.keep_alive);
    }

    #[test]
    fn clean_eof_before_any_byte_is_a_quiet_close_not_an_error() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn pipelined_requests_parse_back_to_back_from_one_stream() {
        let mut stream = stream(
            "POST /simulate HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi\
             GET /stats HTTP/1.1\r\n\r\n",
        );
        let first = read_request(&mut stream).unwrap().unwrap();
        assert_eq!(first.path, "/simulate");
        assert_eq!(first.body, "hi");
        let second = read_request(&mut stream).unwrap().unwrap();
        assert_eq!(second.path, "/stats");
        // ...and the third read observes the clean close.
        assert!(read_request(&mut stream).unwrap().is_none());
    }

    #[test]
    fn deadline_header_is_parsed_and_optional() {
        let req = parse_one(
            "POST /simulate HTTP/1.1\r\nX-Deadline-Ms: 250\r\nContent-Length: 2\r\n\r\nhi",
        );
        assert_eq!(req.deadline_ms, Some(250));
        let req = parse_one("GET /stats HTTP/1.1\r\nx-deadline-ms: 9000\r\n\r\n");
        assert_eq!(req.deadline_ms, Some(9000));
        let req = parse_one("GET /stats HTTP/1.1\r\n\r\n");
        assert_eq!(req.deadline_ms, None);
        assert_eq!(
            parse_err("GET /stats HTTP/1.1\r\nX-Deadline-Ms: soon\r\n\r\n").status,
            400
        );
    }

    #[test]
    fn provenance_header_is_parsed_and_defaults_off() {
        let req = parse_one("POST /simulate HTTP/1.1\r\nX-Provenance: 1\r\n\r\n");
        assert!(req.provenance);
        let req = parse_one("POST /simulate HTTP/1.1\r\nx-provenance: TRUE\r\n\r\n");
        assert!(req.provenance);
        let req = parse_one("POST /simulate HTTP/1.1\r\nX-Provenance: 0\r\n\r\n");
        assert!(!req.provenance, "explicit opt-out stays off");
        let req = parse_one("POST /simulate HTTP/1.1\r\n\r\n");
        assert!(!req.provenance, "provenance is opt-in");
    }

    #[test]
    fn content_type_override_reaches_the_response_head() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            200,
            "m 1\n",
            ResponseOptions::close().with_content_type("text/plain; version=0.0.4"),
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4\r\n"));
    }

    #[test]
    fn header_lookup_is_case_insensitive() {
        let req = parse_one("POST /x HTTP/1.1\r\ncOnTeNt-LeNgTh: 2\r\n\r\nhi");
        assert_eq!(req.body, "hi");
    }

    #[test]
    fn expect_100_continue_gets_an_interim_response_before_the_body() {
        // curl sends Expect: 100-continue for bodies over ~1 KiB and holds
        // the body until the server answers; without the interim response
        // every /sweep batch pays curl's ~1 s give-up timeout.
        let mut reader =
            stream("POST /sweep HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 4\r\n\r\nbody");
        let req = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(req.body, "body");
        assert_eq!(reader.get_ref().written, b"HTTP/1.1 100 Continue\r\n\r\n");
        // Bodyless requests never get (or need) the interim response.
        let mut reader = stream("GET /stats HTTP/1.1\r\nExpect: 100-continue\r\n\r\n");
        read_request(&mut reader).unwrap();
        assert!(reader.get_ref().written.is_empty());
    }

    fn parse_err(raw: &str) -> HttpError {
        parse(raw).unwrap_err()
    }

    #[test]
    fn rejects_garbage_truncation_and_bad_lengths() {
        assert_eq!(parse_err("POST").status, 400, "EOF mid-head");
        assert_eq!(parse_err("POST\r\n\r\n").status, 400);
        assert_eq!(parse_err("POST /x SPDY/3\r\n\r\n").status, 505);
        assert_eq!(
            parse_err("POST /x HTTP/1.1\r\nContent-Length: ten\r\n\r\n").status,
            400
        );
        // Declared body longer than what arrives.
        assert_eq!(
            parse_err("POST /x HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort").status,
            400
        );
        // Oversized declared body is refused before allocation, with the
        // dedicated 413 status.
        assert_eq!(
            parse_err("POST /x HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n").status,
            413
        );
    }

    #[test]
    fn chunked_transfer_encoding_is_refused_explicitly() {
        let err = parse_err("POST /sweep HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        assert_eq!(err.status, 501);
        assert!(err.message.contains("Content-Length"), "{}", err.message);
    }

    #[test]
    fn oversized_head_is_refused_with_431() {
        let raw = format!(
            "POST /x HTTP/1.1\r\nPadding: {}\r\n\r\n",
            "y".repeat(32 * 1024)
        );
        assert_eq!(parse_err(&raw).status, 431);
    }

    #[test]
    fn responses_are_well_formed() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "{\"ok\": true}", ResponseOptions::close()).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 12\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\": true}"));
        assert_eq!(reason_phrase(404), "Not Found");
        assert_eq!(reason_phrase(429), "Too Many Requests");
        assert_eq!(reason_phrase(503), "Service Unavailable");
        assert_eq!(reason_phrase(599), "Unknown");
    }

    #[test]
    fn keep_alive_responses_advertise_persistence() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "{}", ResponseOptions::keep_alive()).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(!text.contains("Retry-After"));
    }

    #[test]
    fn shed_responses_carry_retry_after() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            429,
            "{\"error\": \"shed\"}",
            ResponseOptions::keep_alive().with_retry_after(1),
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
    }

    /// Pipelined requests with bodies, read through a stream that yields
    /// 1–3 bytes per read: every head (and the blank lines straddling the
    /// tiny refills) and every body reassemble exactly.
    #[test]
    fn trickled_pipelined_requests_with_bodies_reassemble() {
        let raw = "POST /simulate HTTP/1.1\r\nContent-Length: 5\r\n\r\nfirst\
                   POST /sweep HTTP/1.1\r\nX-Provenance: 1\r\nContent-Length: 6\r\n\r\nsecond\
                   GET /stats HTTP/1.1\r\n\r\n";
        let mut fake = FakeStream::new(raw);
        fake.chunks = true;
        let mut reader = BufReader::with_capacity(READ_BUFFER_BYTES, fake);
        let first = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(
            (first.path.as_str(), first.body.as_str()),
            ("/simulate", "first")
        );
        let second = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(
            (second.path.as_str(), second.body.as_str()),
            ("/sweep", "second")
        );
        assert!(second.provenance);
        let third = read_request(&mut reader).unwrap().unwrap();
        assert_eq!((third.path.as_str(), third.body.as_str()), ("/stats", ""));
        assert!(read_request(&mut reader).unwrap().is_none());
        assert!(
            reader.get_ref().reads > raw.len() / 3,
            "the stream really was trickled"
        );
    }

    /// A head, its body and the next head in one read: one refill serves
    /// both requests, and the leftover bytes start the second.
    #[test]
    fn one_read_carrying_a_request_and_the_next_head_serves_both() {
        let mut reader = stream(
            "POST /simulate HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /healthz HTTP/1.1\r\n\r\n",
        );
        assert_eq!(read_request(&mut reader).unwrap().unwrap().body, "hi");
        assert_eq!(read_request(&mut reader).unwrap().unwrap().path, "/healthz");
        // Two reads: the one refill, then the EOF probe.
        assert!(read_request(&mut reader).unwrap().is_none());
        assert_eq!(reader.get_ref().reads, 2);
    }

    /// A head longer than one refill but under the cap is gathered across
    /// refills and parses; past the cap it is a 431 however it arrives.
    #[test]
    fn heads_spanning_refills_parse_up_to_the_cap() {
        let padding = "y".repeat(READ_BUFFER_BYTES + 100);
        let req = parse_one(&format!(
            "POST /x HTTP/1.1\r\nPadding: {padding}\r\nContent-Length: 2\r\n\r\nhi"
        ));
        assert_eq!(req.body, "hi");
        let padding = "y".repeat(MAX_HEAD_BYTES);
        let mut fake = FakeStream::new(&format!("GET /x HTTP/1.1\r\nPadding: {padding}\r\n\r\n"));
        fake.chunks = true;
        let err = read_request(&mut BufReader::new(fake)).unwrap_err();
        assert_eq!(err.status, 431);
    }

    /// Silence before the first byte is an idle close; a read timeout
    /// after it, in the head or in the body, is a 408.
    #[test]
    fn read_timeouts_mid_request_are_408_and_before_it_idle() {
        let timing_out = |raw: &str| {
            let mut fake = FakeStream::new(raw);
            fake.then_timeout = true;
            read_request(&mut BufReader::new(fake))
        };
        assert!(timing_out("").unwrap().is_none(), "idle keep-alive reap");
        assert_eq!(
            timing_out("POST /x HTTP/1.1\r\nCont").unwrap_err().status,
            408
        );
        assert_eq!(
            timing_out("POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\npart")
                .unwrap_err()
                .status,
            408
        );
    }

    /// Counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_exactly_one_write() {
        for options in [
            ResponseOptions::keep_alive(),
            ResponseOptions::close().with_retry_after(1),
        ] {
            let mut out = CountingWriter::default();
            write_response(&mut out, 200, "{\"ok\": true}", options).unwrap();
            assert_eq!(out.writes, 1, "head and body in one write");
            assert!(out.bytes.ends_with(b"\r\n\r\n{\"ok\": true}"));
        }
    }
}
