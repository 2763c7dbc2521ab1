//! A tiny blocking HTTP client for the serving API.
//!
//! Used by the load generator, the integration tests and the examples; kept
//! in the library so every consumer speaks the exact same (minimal) dialect
//! the server implements. Two shapes:
//!
//! * the one-shot helpers ([`request`], [`post`], [`get`]) open a fresh
//!   connection per request (`Connection: close`) — handy for smoke tests
//!   and the cold-path baseline in `serve_bench`;
//! * [`ClientConnection`] holds one keep-alive socket behind a buffered
//!   reader, frames responses by `Content-Length` (the connection stays
//!   open, so EOF no longer delimits), transparently reconnects once when
//!   a pooled socket turns out to have been idle-reaped, and can
//!   [`ClientConnection::pipeline`] several requests before reading any
//!   response. Each request leaves in one write; each response head is
//!   found in the read buffer and parsed in place, and bytes past its body
//!   (the next pipelined response) stay buffered;
//! * [`RetryPolicy`] adds client-side resilience on top of either shape:
//!   `429`/`503` responses are retried after honouring the server's
//!   `Retry-After` hint, and transport failures (connect refused, stale
//!   pooled sockets) back off exponentially with **deterministic** jitter —
//!   the same seed replays the same retry schedule, so load tests with
//!   retries stay reproducible.

use crate::http::{read_head, HeadError, READ_BUFFER_BYTES};
use crate::json::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A response from the serving API.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response headers in arrival order (names lower-cased).
    pub headers: Vec<(String, String)>,
    /// Raw response body.
    pub body: String,
}

impl ClientResponse {
    /// Parses the body as JSON.
    pub fn json(&self) -> Option<Json> {
        Json::parse(&self.body)
    }

    /// Whether the request succeeded (2xx).
    pub fn is_ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// The first header named `name` (case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the server advertised `Connection: keep-alive` on this
    /// response.
    pub fn keep_alive(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
    }
}

fn parse_head(head: &str) -> Result<(u16, Vec<(String, String)>), String> {
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| format!("malformed status line: {status_line:?}"))?;
    let headers = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(name, value)| (name.trim().to_ascii_lowercase(), value.trim().to_string()))
        .collect();
    Ok((status, headers))
}

/// Sends one request on a fresh `Connection: close` socket and reads the
/// full response.
///
/// # Errors
///
/// Returns a human-readable message on connection, transport or
/// response-parsing failures.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<ClientResponse, String> {
    request_with_headers(addr, method, path, body, &[])
}

/// [`request`] with extra headers (e.g. `X-Deadline-Ms`).
///
/// # Errors
///
/// See [`request`].
pub fn request_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    extra_headers: &[(&str, &str)],
) -> Result<ClientResponse, String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))
        .map_err(|e| format!("connecting to {addr}: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(120))).ok();
    stream.set_write_timeout(Some(Duration::from_secs(30))).ok();
    let extra = extra_headers
        .iter()
        .map(|(name, value)| format!("{name}: {value}\r\n"))
        .collect::<String>();
    let message = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n{extra}Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(message.as_bytes())
        .map_err(|e| format!("sending request: {e}"))?;

    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("reading response: {e}"))?;
    let (head, response_body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed response: {raw:?}"))?;
    let (status, headers) = parse_head(head)?;
    Ok(ClientResponse {
        status,
        headers,
        body: response_body.to_string(),
    })
}

/// `POST`s a JSON body to `path`.
///
/// # Errors
///
/// See [`request`].
pub fn post(addr: SocketAddr, path: &str, body: &str) -> Result<ClientResponse, String> {
    request(addr, "POST", path, body)
}

/// `GET`s `path`.
///
/// # Errors
///
/// See [`request`].
pub fn get(addr: SocketAddr, path: &str) -> Result<ClientResponse, String> {
    request(addr, "GET", path, "")
}

/// Client-side retry tuning: how many times to retry, and how long to wait
/// between attempts.
///
/// Two failure classes are retried:
///
/// * **Backpressure** — a `429` or `503` response. The server's
///   `Retry-After` hint is honoured (capped at [`RetryPolicy::max_delay`]);
///   without one the exponential backoff schedule applies.
/// * **Transport** — connect refused/timed out, or a pooled socket that
///   died. Waits follow bounded exponential backoff.
///
/// Backoff jitter is **deterministic**: it derives from
/// [`RetryPolicy::seed`] and the attempt number alone, so a load test that
/// retries is bit-reproducible run to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retry attempts after the first try (0 = never retry).
    pub max_retries: u32,
    /// First backoff wait; doubles each further attempt.
    pub base_delay: Duration,
    /// Cap on any single wait, from backoff or `Retry-After` alike.
    pub max_delay: Duration,
    /// Seed for the deterministic jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// Three retries, 100 ms base, 2 s cap, seed 0.
    fn default() -> Self {
        Self {
            max_retries: 3,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_secs(2),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The wait before retry `attempt` (0-based): exponential, capped, with
    /// deterministic jitter in the upper half of the window.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exponential = self
            .base_delay
            .saturating_mul(1u32 << attempt.min(10))
            .min(self.max_delay);
        // FNV-1a over (seed, attempt) → a fraction in [0.5, 1.0): jittered
        // but replayable.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self
            .seed
            .to_le_bytes()
            .into_iter()
            .chain(attempt.to_le_bytes())
        {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let fraction = 0.5 + (hash as f64 / u64::MAX as f64) * 0.5;
        exponential.mul_f64(fraction)
    }

    /// The wait after a backpressure response: the server's `Retry-After`
    /// hint when present (capped), the backoff schedule otherwise.
    fn backpressure_delay(&self, response: &ClientResponse, attempt: u32) -> Duration {
        response
            .header("retry-after")
            .and_then(|value| value.trim().parse::<u64>().ok())
            .map(Duration::from_secs)
            .unwrap_or_else(|| self.backoff(attempt))
            .min(self.max_delay)
    }

    /// Whether a response should be retried (backpressure statuses only —
    /// anything else, including 5xx evaluation errors, is final).
    fn should_retry(response: &ClientResponse) -> bool {
        matches!(response.status, 429 | 503)
    }
}

/// [`request`] with retries per `policy`: backpressure responses honour
/// `Retry-After`, transport failures back off exponentially. Returns the
/// last response once retries are exhausted (a `429` after `max_retries`
/// waits is still a `429` — the caller sees the truth).
///
/// # Errors
///
/// The last transport error, if the final attempt failed to transport.
pub fn request_with_retry(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    policy: RetryPolicy,
) -> Result<ClientResponse, String> {
    let mut attempt = 0;
    loop {
        let outcome = request(addr, method, path, body);
        match outcome {
            Ok(response)
                if RetryPolicy::should_retry(&response) && attempt < policy.max_retries =>
            {
                std::thread::sleep(policy.backpressure_delay(&response, attempt));
            }
            Ok(response) => return Ok(response),
            Err(message) => {
                if attempt >= policy.max_retries {
                    return Err(message);
                }
                std::thread::sleep(policy.backoff(attempt));
            }
        }
        attempt += 1;
    }
}

/// A transport failure, split by whether retrying on a fresh socket is
/// safe: a pooled keep-alive socket the server idle-reaped yields EOF
/// *before any response byte* — nothing was processed, so resending is
/// safe. Anything mid-response is not retried.
enum TransportError {
    /// EOF before the first response byte (stale pooled connection).
    Stale,
    Other(String),
}

/// One persistent keep-alive connection to the serving API.
pub struct ClientConnection {
    addr: SocketAddr,
    /// The socket behind its read buffer; writes go to the socket itself.
    stream: Option<BufReader<TcpStream>>,
}

impl ClientConnection {
    /// A client for `addr`. The socket is dialed lazily on first use.
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, stream: None }
    }

    /// Drops the pooled socket (the next request redials).
    pub fn close(&mut self) {
        self.stream = None;
    }

    fn connect(&mut self) -> Result<&mut BufReader<TcpStream>, String> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(10))
                .map_err(|e| format!("connecting to {}: {e}", self.addr))?;
            stream.set_read_timeout(Some(Duration::from_secs(120))).ok();
            stream.set_write_timeout(Some(Duration::from_secs(30))).ok();
            stream.set_nodelay(true).ok();
            self.stream = Some(BufReader::with_capacity(READ_BUFFER_BYTES, stream));
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    fn render_request(&self, method: &str, path: &str, body: &str) -> String {
        format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n{body}",
            self.addr,
            body.len(),
        )
    }

    /// Sends one request on the pooled connection and reads its response.
    /// A socket that turns out to be dead *before any response byte*
    /// (idle-reaped by the server between requests) is replaced and the
    /// request resent once.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on connection, transport or
    /// response-parsing failures.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<ClientResponse, String> {
        let rendered = self.render_request(method, path, body);
        let had_pooled_socket = self.stream.is_some();
        match self.send_and_read(&rendered) {
            Ok(response) => Ok(response),
            Err(TransportError::Stale) if had_pooled_socket => {
                // The pooled socket died between requests; one fresh retry.
                self.close();
                self.send_and_read(&rendered).map_err(|e| match e {
                    TransportError::Stale => "connection closed before response".to_string(),
                    TransportError::Other(message) => message,
                })
            }
            Err(TransportError::Stale) => Err("connection closed before response".to_string()),
            Err(TransportError::Other(message)) => Err(message),
        }
    }

    /// [`ClientConnection::request`] with retries per `policy`:
    /// backpressure responses honour `Retry-After`, transport failures
    /// (including a dead pooled socket past the built-in single stale
    /// retry) redial after exponential backoff. Returns the last response
    /// once retries are exhausted.
    ///
    /// # Errors
    ///
    /// The last transport error, if the final attempt failed to transport.
    pub fn request_with_retry(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        policy: RetryPolicy,
    ) -> Result<ClientResponse, String> {
        let mut attempt = 0;
        loop {
            match self.request(method, path, body) {
                Ok(response)
                    if RetryPolicy::should_retry(&response) && attempt < policy.max_retries =>
                {
                    std::thread::sleep(policy.backpressure_delay(&response, attempt));
                }
                Ok(response) => return Ok(response),
                Err(message) => {
                    if attempt >= policy.max_retries {
                        return Err(message);
                    }
                    self.close();
                    std::thread::sleep(policy.backoff(attempt));
                }
            }
            attempt += 1;
        }
    }

    /// `POST`s a JSON body to `path` on the pooled connection.
    ///
    /// # Errors
    ///
    /// See [`ClientConnection::request`].
    pub fn post(&mut self, path: &str, body: &str) -> Result<ClientResponse, String> {
        self.request("POST", path, body)
    }

    /// `GET`s `path` on the pooled connection.
    ///
    /// # Errors
    ///
    /// See [`ClientConnection::request`].
    pub fn get(&mut self, path: &str) -> Result<ClientResponse, String> {
        self.request("GET", path, "")
    }

    /// Writes every request back-to-back before reading any response
    /// (HTTP/1.1 pipelining), then reads the responses in order. Exercises
    /// the server's read-ahead path and lets concurrently queued same-key
    /// requests coalesce.
    ///
    /// # Errors
    ///
    /// Fails atomically: any transport error drops the connection and
    /// reports which stage failed.
    pub fn pipeline(
        &mut self,
        requests: &[(&str, &str, &str)],
    ) -> Result<Vec<ClientResponse>, String> {
        let rendered: String = requests
            .iter()
            .map(|(method, path, body)| self.render_request(method, path, body))
            .collect();
        let stream = self.connect()?.get_mut();
        if let Err(e) = stream.write_all(rendered.as_bytes()) {
            self.close();
            return Err(format!("sending pipelined requests: {e}"));
        }
        let mut responses = Vec::with_capacity(requests.len());
        for index in 0..requests.len() {
            let Some(stream) = self.stream.as_mut() else {
                return Err(format!(
                    "connection closed after {index} of {} pipelined responses",
                    requests.len()
                ));
            };
            match read_response(stream) {
                Ok(response) => {
                    if !response.keep_alive() {
                        self.close();
                    }
                    responses.push(response);
                }
                Err(TransportError::Stale) => {
                    self.close();
                    return Err(format!(
                        "connection closed before pipelined response {index}"
                    ));
                }
                Err(TransportError::Other(message)) => {
                    self.close();
                    return Err(message);
                }
            }
        }
        Ok(responses)
    }

    fn send_and_read(&mut self, rendered: &str) -> Result<ClientResponse, TransportError> {
        let stream = self.connect().map_err(TransportError::Other)?;
        if stream.get_mut().write_all(rendered.as_bytes()).is_err() {
            // A broken pooled socket surfaces as a write error (EPIPE /
            // reset); nothing of this request was processed.
            self.close();
            return Err(TransportError::Stale);
        }
        let outcome = read_response(stream);
        match &outcome {
            Ok(response) if response.keep_alive() => {}
            _ => self.close(),
        }
        outcome
    }
}

/// Upper bound on a response head.
const MAX_RESPONSE_HEAD_BYTES: usize = 64 * 1024;

/// Reads one `Content-Length`-framed response from a (possibly persistent)
/// buffered stream. Bytes past its body stay buffered for the next call.
fn read_response(reader: &mut impl BufRead) -> Result<ClientResponse, TransportError> {
    let (head, _) = read_head(reader, MAX_RESPONSE_HEAD_BYTES, None, |head| {
        std::str::from_utf8(head)
            .map_err(|_| "response head is not UTF-8".to_string())
            .and_then(parse_head)
    })
    .map_err(|e| match e {
        HeadError::Nothing(None) => TransportError::Stale,
        HeadError::Nothing(Some(e))
            if matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
                    | std::io::ErrorKind::BrokenPipe
            ) =>
        {
            TransportError::Stale
        }
        HeadError::Nothing(Some(e)) | HeadError::Io(e) => {
            TransportError::Other(format!("reading response head: {e}"))
        }
        HeadError::Truncated => TransportError::Other("connection closed mid-response".to_string()),
        HeadError::TooLarge => TransportError::Other("response head too large".to_string()),
        HeadError::Deadline => TransportError::Other("response head timed out".to_string()),
    })?;
    let (status, headers) = head.map_err(TransportError::Other)?;
    let content_length = headers
        .iter()
        .find(|(name, _)| name == "content-length")
        .and_then(|(_, value)| value.parse::<usize>().ok())
        .unwrap_or(0);
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| TransportError::Other(format!("reading response body: {e}")))?;
    let body = String::from_utf8(body)
        .map_err(|_| TransportError::Other("response body is not UTF-8".to_string()))?;
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let policy = RetryPolicy {
            max_retries: 5,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_secs(1),
            seed: 42,
        };
        let first: Vec<Duration> = (0..6).map(|a| policy.backoff(a)).collect();
        let second: Vec<Duration> = (0..6).map(|a| policy.backoff(a)).collect();
        assert_eq!(first, second, "same seed, same schedule");
        for (attempt, delay) in first.iter().enumerate() {
            assert!(*delay <= Duration::from_secs(1), "cap holds");
            // Jitter stays in the upper half of the exponential window.
            let window = Duration::from_millis(100 * (1 << attempt.min(10))).min(policy.max_delay);
            assert!(
                *delay >= window.mul_f64(0.5),
                "attempt {attempt}: {delay:?}"
            );
        }
        let other = RetryPolicy { seed: 43, ..policy };
        assert_ne!(
            (0..6).map(|a| other.backoff(a)).collect::<Vec<_>>(),
            first,
            "a different seed reshuffles the jitter"
        );
    }

    /// A scripted one-shot server: each accepted connection gets the next
    /// canned response; returns the number of requests served.
    fn scripted_server(responses: Vec<String>) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
        let addr = listener.local_addr().expect("bound addr");
        let handle = std::thread::spawn(move || {
            let mut served = 0;
            for response in responses {
                let Ok((mut stream, _)) = listener.accept() else {
                    break;
                };
                // Drain the request head so the client's write completes.
                let mut buffer = [0u8; 4096];
                let _ = stream.read(&mut buffer);
                stream.write_all(response.as_bytes()).ok();
                served += 1;
            }
            served
        });
        (addr, handle)
    }

    #[test]
    fn retry_honours_retry_after_on_503_then_succeeds() {
        let busy = "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 2\r\n\
                    Retry-After: 0\r\nConnection: close\r\n\r\n{}"
            .to_string();
        let ok = "HTTP/1.1 200 OK\r\nContent-Length: 12\r\nConnection: close\r\n\r\n{\"ok\": true}"
            .to_string();
        let (addr, server) = scripted_server(vec![busy.clone(), busy, ok]);
        let policy = RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(10),
            seed: 7,
        };
        let response = request_with_retry(addr, "GET", "/stats", "", policy).expect("transported");
        assert_eq!(response.status, 200, "retried through two 503s");
        assert_eq!(server.join().unwrap(), 3);
    }

    #[test]
    fn exhausted_retries_surface_the_last_backpressure_response() {
        let busy = "HTTP/1.1 429 Too Many Requests\r\nContent-Length: 2\r\n\
                    Retry-After: 0\r\nConnection: close\r\n\r\n{}"
            .to_string();
        let (addr, server) = scripted_server(vec![busy.clone(), busy.clone(), busy]);
        let policy = RetryPolicy {
            max_retries: 2,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(10),
            seed: 7,
        };
        let response = request_with_retry(addr, "GET", "/stats", "", policy).expect("transported");
        assert_eq!(response.status, 429, "the caller sees the truth");
        assert_eq!(server.join().unwrap(), 3, "initial try + two retries");
    }

    #[test]
    fn connect_failures_back_off_then_report_the_transport_error() {
        // Bind-then-drop: the port is (momentarily) refusing connections.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
            listener.local_addr().expect("bound addr")
        };
        let policy = RetryPolicy {
            max_retries: 2,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(5),
            seed: 7,
        };
        let started = std::time::Instant::now();
        let outcome = request_with_retry(addr, "GET", "/stats", "", policy);
        assert!(outcome.is_err(), "nothing is listening");
        assert!(outcome.unwrap_err().contains("connecting to"));
        // Two backoff waits happened (tiny, but nonzero).
        assert!(started.elapsed() >= policy.backoff(0));
    }

    /// Two keep-alive responses back to back, as one segment carries them.
    const TWO_RESPONSES: &str = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\
        Connection: keep-alive\r\n\r\n{}\
        HTTP/1.1 429 Too Many Requests\r\nContent-Length: 4\r\n\
        Retry-After: 1\r\nConnection: keep-alive\r\n\r\nshed";

    fn assert_two_responses(first: &ClientResponse, second: &ClientResponse) {
        assert_eq!((first.status, first.body.as_str()), (200, "{}"));
        assert!(first.keep_alive());
        assert_eq!((second.status, second.body.as_str()), (429, "shed"));
        assert_eq!(second.header("Retry-After"), Some("1"));
    }

    /// Two responses in one segment: the first read buffers both, the
    /// second response is parsed from the leftover bytes, and the EOF after
    /// them is a stale close.
    #[test]
    fn two_responses_in_one_segment_parse_from_one_buffer() {
        let mut reader = BufReader::new(TWO_RESPONSES.as_bytes());
        let first = read_response(&mut reader).ok().expect("first response");
        let second = read_response(&mut reader).ok().expect("second response");
        assert_two_responses(&first, &second);
        assert!(matches!(
            read_response(&mut reader),
            Err(TransportError::Stale)
        ));
    }

    /// A byte-at-a-time stream still frames responses exactly.
    #[test]
    fn trickled_responses_reassemble() {
        struct Trickle<'a>(&'a [u8]);
        impl Read for Trickle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = self.0.len().min(buf.len()).min(1);
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let mut reader = BufReader::new(Trickle(TWO_RESPONSES.as_bytes()));
        let first = read_response(&mut reader).ok().expect("first response");
        let second = read_response(&mut reader).ok().expect("second response");
        assert_two_responses(&first, &second);
    }

    /// Over a real socket: two pipelined requests leave in one write, and
    /// the server's two answers, sent as one segment, come back in order.
    #[test]
    fn pipelined_responses_sent_as_one_segment_come_back_in_order() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
        let addr = listener.local_addr().expect("bound addr");
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut received = Vec::new();
            let mut buffer = [0u8; 4096];
            while received.windows(4).filter(|w| w == b"\r\n\r\n").count() < 2 {
                let n = stream.read(&mut buffer).expect("request bytes");
                assert!(n > 0, "client closed early");
                received.extend_from_slice(&buffer[..n]);
            }
            stream
                .write_all(TWO_RESPONSES.as_bytes())
                .expect("one write");
            String::from_utf8(received).expect("UTF-8 requests")
        });
        let mut connection = ClientConnection::new(addr);
        let responses = connection
            .pipeline(&[("GET", "/a", ""), ("POST", "/b", "{}")])
            .expect("both responses");
        assert_eq!(responses.len(), 2);
        assert_two_responses(&responses[0], &responses[1]);
        let requests = server.join().unwrap();
        assert!(requests.starts_with("GET /a HTTP/1.1\r\n"), "{requests}");
        assert!(requests.ends_with("\r\n\r\n{}"), "{requests}");
    }
}
