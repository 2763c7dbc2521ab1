//! A tiny blocking HTTP client for the serving API.
//!
//! Used by the integration tests, the examples and the repository
//! benchmark; kept in the library so every consumer speaks the exact same
//! (minimal) dialect the server implements. Two shapes:
//!
//! * the one-shot helpers ([`request`], [`post`], [`get`]) open a fresh
//!   connection per request (`Connection: close`) — handy for smoke tests;
//! * [`ClientConnection`] holds one keep-alive socket behind a buffered
//!   reader, frames responses by `Content-Length` (the connection stays
//!   open, so EOF no longer delimits), transparently reconnects once when
//!   a pooled socket turns out to have been idle-reaped, and can
//!   [`ClientConnection::pipeline`] several requests before reading any
//!   response. Each request leaves in one write; each response head is
//!   found in the read buffer and parsed in place, and bytes past its body
//!   (the next pipelined response) stay buffered.

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
    fn close(&mut self) {
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
    /// the server's read-ahead path, which hands later requests to free
    /// evaluation workers while earlier ones are still being evaluated.
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
