//! A bounds-checked HTTP/1.1 codec over blocking streams.
//!
//! This is deliberately *not* a general HTTP implementation — it is the
//! smallest codec that serves the three endpoints safely against hostile
//! bytes, in the same philosophy as `genie::Error::CorruptArtifact`: the
//! transport was readable, the bytes were not, and that difference must be
//! a typed error ([`HttpError`]) — never a panic, never an unbounded read,
//! never a hang past the configured timeouts.
//!
//! Limits enforced while *reading* (before any allocation proportional to
//! attacker input): request-line and header-line length, header count,
//! declared and actual body size. Timeouts come from the socket's
//! `read_timeout`; the codec distinguishes an **idle** timeout (keep-alive
//! connection with no next request — close quietly) from a **mid-request**
//! timeout (slow-write attack — answer `408` and close).

use std::io::{BufRead, Write};

/// Longest accepted request line (method + path + version).
pub const MAX_REQUEST_LINE_BYTES: usize = 4096;
/// Longest accepted single header line.
pub const MAX_HEADER_LINE_BYTES: usize = 4096;
/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 64;
/// Longest accepted request path.
pub const MAX_PATH_BYTES: usize = 1024;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The method verbatim (e.g. `GET`, `POST`).
    pub method: String,
    /// The path verbatim (no percent-decoding; the API paths are ASCII).
    pub path: String,
    /// The body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

/// Everything that can go wrong reading a request. Variants with a
/// [`HttpError::status`] are answered on the wire; the rest close the
/// connection silently (there is nobody left to answer).
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, header, or body framing → `400`.
    BadRequest(String),
    /// A body-carrying method without `Content-Length` → `411`.
    LengthRequired,
    /// Declared body larger than the server accepts → `413`.
    PayloadTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// The server's limit.
        limit: usize,
    },
    /// Request path longer than [`MAX_PATH_BYTES`] → `414`.
    UriTooLong,
    /// The peer stalled mid-request past the read timeout → `408`.
    Timeout,
    /// The peer went idle between keep-alive requests; close quietly.
    IdleTimeout,
    /// The peer closed the connection cleanly before a request (or, on the
    /// client side, a response) started.
    Closed,
    /// A transport error; close quietly.
    Io(std::io::Error),
}

impl HttpError {
    /// The `(status, reason)` to answer with, or `None` when the
    /// connection should just close.
    pub fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            HttpError::BadRequest(_) => Some((400, "Bad Request")),
            HttpError::LengthRequired => Some((411, "Length Required")),
            HttpError::PayloadTooLarge { .. } => Some((413, "Payload Too Large")),
            HttpError::UriTooLong => Some((414, "URI Too Long")),
            HttpError::Timeout => Some((408, "Request Timeout")),
            HttpError::IdleTimeout | HttpError::Closed | HttpError::Io(_) => None,
        }
    }

    /// A short machine-readable code for the JSON error body.
    pub fn code(&self) -> &'static str {
        match self {
            HttpError::BadRequest(_) => "bad_request",
            HttpError::LengthRequired => "length_required",
            HttpError::PayloadTooLarge { .. } => "payload_too_large",
            HttpError::UriTooLong => "uri_too_long",
            HttpError::Timeout => "timeout",
            HttpError::IdleTimeout => "idle_timeout",
            HttpError::Closed => "closed",
            HttpError::Io(_) => "io",
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(detail) => write!(f, "bad request: {detail}"),
            HttpError::LengthRequired => write!(f, "Content-Length required"),
            HttpError::PayloadTooLarge { declared, limit } => {
                write!(
                    f,
                    "declared body of {declared} bytes exceeds the limit of {limit}"
                )
            }
            HttpError::UriTooLong => write!(f, "request path too long"),
            HttpError::Timeout => write!(f, "timed out reading the request"),
            HttpError::IdleTimeout => write!(f, "idle keep-alive connection"),
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::Io(error) => write!(f, "i/o error: {error}"),
        }
    }
}

impl std::error::Error for HttpError {}

fn is_timeout(error: &std::io::Error) -> bool {
    matches!(
        error.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Read one `\n`-terminated line of at most `limit` bytes (CR stripped).
///
/// `Ok(None)` is a clean EOF before the first byte; EOF mid-line is a
/// `BadRequest`. A socket timeout maps to [`HttpError::Timeout`] when any
/// bytes of the line had arrived (including bytes of earlier lines:
/// `started`), [`HttpError::IdleTimeout`] otherwise.
fn read_line_limited<R: BufRead>(
    reader: &mut R,
    limit: usize,
    started: bool,
) -> Result<Option<String>, HttpError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() && !started {
                    return Ok(None);
                }
                return Err(HttpError::BadRequest("unexpected end of stream".into()));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    let text = String::from_utf8(line)
                        .map_err(|_| HttpError::BadRequest("non-UTF-8 header bytes".into()))?;
                    return Ok(Some(text));
                }
                if line.len() >= limit {
                    return Err(HttpError::BadRequest("header line too long".into()));
                }
                line.push(byte[0]);
            }
            Err(error) if is_timeout(&error) => {
                if line.is_empty() && !started {
                    return Err(HttpError::IdleTimeout);
                }
                return Err(HttpError::Timeout);
            }
            Err(error) if error.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(error) => return Err(HttpError::Io(error)),
        }
    }
}

/// Read one request from `reader`, enforcing every size limit while
/// reading. `Ok(None)` means the peer closed cleanly between requests.
pub fn read_request<R: BufRead>(
    reader: &mut R,
    max_body_bytes: usize,
) -> Result<Option<Request>, HttpError> {
    let Some(request_line) = read_line_limited(reader, MAX_REQUEST_LINE_BYTES, false)? else {
        return Ok(None);
    };
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(method), Some(path), Some(version), None) => (method, path, version),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line: `{}`",
                request_line.escape_debug()
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported protocol version `{}`",
            version.escape_debug()
        )));
    }
    if path.len() > MAX_PATH_BYTES {
        return Err(HttpError::UriTooLong);
    }
    let method = method.to_owned();
    let path = path.to_owned();

    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
    let mut keep_alive = version != "HTTP/1.0";
    let mut content_length: Option<usize> = None;
    let mut headers_seen = 0usize;
    loop {
        let line = read_line_limited(reader, MAX_HEADER_LINE_BYTES, true)?
            .ok_or_else(|| HttpError::BadRequest("stream ended inside headers".into()))?;
        if line.is_empty() {
            break;
        }
        headers_seen += 1;
        if headers_seen > MAX_HEADERS {
            return Err(HttpError::BadRequest("too many headers".into()));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!(
                "malformed header: `{}`",
                line.escape_debug()
            )));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                let length: usize = value.parse().map_err(|_| {
                    HttpError::BadRequest(format!(
                        "unparseable Content-Length `{}`",
                        value.escape_debug()
                    ))
                })?;
                content_length = Some(length);
            }
            "connection" => {
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
            "transfer-encoding" => {
                // Chunked bodies are out of scope for the API surface; a
                // typed rejection beats silently mis-framing the stream.
                return Err(HttpError::BadRequest(
                    "Transfer-Encoding is not supported; send Content-Length".into(),
                ));
            }
            _ => {}
        }
    }

    let body = match content_length {
        Some(declared) if declared > max_body_bytes => {
            return Err(HttpError::PayloadTooLarge {
                declared,
                limit: max_body_bytes,
            });
        }
        Some(declared) => {
            let mut body = vec![0u8; declared];
            let mut filled = 0usize;
            while filled < declared {
                match reader.read(&mut body[filled..]) {
                    Ok(0) => {
                        return Err(HttpError::BadRequest(
                            "body shorter than Content-Length".into(),
                        ))
                    }
                    Ok(n) => filled += n,
                    Err(error) if is_timeout(&error) => return Err(HttpError::Timeout),
                    Err(error) if error.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(error) => return Err(HttpError::Io(error)),
                }
            }
            body
        }
        None if method == "POST" || method == "PUT" || method == "PATCH" => {
            return Err(HttpError::LengthRequired);
        }
        None => Vec::new(),
    };

    Ok(Some(Request {
        method,
        path,
        body,
        keep_alive,
    }))
}

/// One parsed response — the *client* side of the codec, used by the
/// follower's replication poller against a primary and by every test and
/// bench client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The status code from the status line.
    pub status: u16,
    /// The headers in wire order, names and values trimmed (at most
    /// [`MAX_HEADERS`]).
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// The first header named `name`, compared case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(candidate, _)| candidate.eq_ignore_ascii_case(name))
            .map(|(_, value)| value.as_str())
    }

    /// The body as text; invalid UTF-8 shows as replacement characters.
    pub fn text(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }
}

/// Read one response from `reader`, enforcing the same line/header limits
/// as [`read_request`] and capping the body at `max_body_bytes`. The
/// server end of this codec always frames with `Content-Length`, so a
/// short read is a typed error, never a silent truncation. A peer that
/// closes before the status line is [`HttpError::Closed`].
pub fn read_response<R: BufRead>(
    reader: &mut R,
    max_body_bytes: usize,
) -> Result<Response, HttpError> {
    let status_line =
        read_line_limited(reader, MAX_REQUEST_LINE_BYTES, false)?.ok_or(HttpError::Closed)?;
    let mut parts = status_line.split(' ').filter(|p| !p.is_empty());
    let status: u16 = match (parts.next(), parts.next()) {
        (Some(version), Some(code)) if version.starts_with("HTTP/1.") => {
            code.parse().map_err(|_| {
                HttpError::BadRequest(format!("unparseable status code `{}`", code.escape_debug()))
            })?
        }
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed status line: `{}`",
                status_line.escape_debug()
            )))
        }
    };
    let mut content_length: Option<usize> = None;
    let mut headers = Vec::new();
    loop {
        let line = read_line_limited(reader, MAX_HEADER_LINE_BYTES, true)?
            .ok_or_else(|| HttpError::BadRequest("stream ended inside headers".into()))?;
        if line.is_empty() {
            break;
        }
        if headers.len() == MAX_HEADERS {
            return Err(HttpError::BadRequest("too many headers".into()));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!(
                "malformed header: `{}`",
                line.escape_debug()
            )));
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            let length: usize = value.parse().map_err(|_| {
                HttpError::BadRequest(format!(
                    "unparseable Content-Length `{}`",
                    value.escape_debug()
                ))
            })?;
            content_length = Some(length);
        }
        headers.push((name.to_owned(), value.to_owned()));
    }
    let declared = content_length
        .ok_or_else(|| HttpError::BadRequest("response without Content-Length".into()))?;
    if declared > max_body_bytes {
        return Err(HttpError::PayloadTooLarge {
            declared,
            limit: max_body_bytes,
        });
    }
    let mut body = vec![0u8; declared];
    let mut filled = 0usize;
    while filled < declared {
        match reader.read(&mut body[filled..]) {
            Ok(0) => {
                return Err(HttpError::BadRequest(
                    "response body shorter than Content-Length".into(),
                ))
            }
            Ok(n) => filled += n,
            Err(error) if is_timeout(&error) => return Err(HttpError::Timeout),
            Err(error) if error.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(error) => return Err(HttpError::Io(error)),
        }
    }
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// Write one request, always framed with `Content-Length` (zero for an
/// empty body) — the client twin of [`write_response`]. Head and body go
/// out in one write, so a client without `TCP_NODELAY` never stalls on
/// Nagle's algorithm between them.
pub fn write_request<W: Write>(
    writer: &mut W,
    method: &str,
    path: &str,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut wire = format!(
        "{method} {path} HTTP/1.1\r\nHost: genie\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )
    .into_bytes();
    wire.extend_from_slice(body);
    writer.write_all(&wire)?;
    writer.flush()
}

/// Write one response. The body is always fully framed with
/// `Content-Length`, so pipelined clients can delimit responses.
pub fn write_response<W: Write>(
    writer: &mut W,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    extra_headers: &[(&str, String)],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    writer.write_all(head.as_bytes())?;
    writer.write_all(body)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn read(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(bytes), 1024)
    }

    #[test]
    fn parses_a_post_with_body_and_keep_alive_default() {
        let wire = b"POST /v1/parse HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let request = read(wire).unwrap().unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/v1/parse");
        assert_eq!(request.body, b"hello");
        assert!(request.keep_alive);
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let wire = b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
        assert!(!read(wire).unwrap().unwrap().keep_alive);
        let wire10 = b"GET /metrics HTTP/1.0\r\n\r\n";
        assert!(!read(wire10).unwrap().unwrap().keep_alive);
    }

    #[test]
    fn clean_eof_before_a_request_is_none() {
        assert!(read(b"").unwrap().is_none());
    }

    #[test]
    fn truncated_request_line_is_bad_request() {
        // Stream ends mid-line: typed 400, not a hang or a panic.
        let error = read(b"POST /v1/parse HT").unwrap_err();
        assert!(matches!(error, HttpError::BadRequest(_)));
        assert_eq!(error.status(), Some((400, "Bad Request")));
    }

    #[test]
    fn garbage_request_lines_are_bad_requests() {
        for wire in [
            &b"\x00\x01\x02\x03\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET /too many words HTTP/1.1 extra\r\n\r\n",
            b"GET / SMTP/1.0\r\n\r\n",
            b"GET / HTTP/2.0\r\n\r\n",
            b"\xff\xfe garbage\r\n\r\n",
        ] {
            assert!(
                matches!(read(wire), Err(HttpError::BadRequest(_))),
                "`{}` not rejected",
                String::from_utf8_lossy(wire).escape_debug()
            );
        }
    }

    #[test]
    fn missing_content_length_on_post_is_length_required() {
        let error = read(b"POST /v1/parse HTTP/1.1\r\n\r\n{}").unwrap_err();
        assert!(matches!(error, HttpError::LengthRequired));
        assert_eq!(error.status(), Some((411, "Length Required")));
    }

    #[test]
    fn oversized_declared_body_is_payload_too_large_before_reading_it() {
        // The body bytes are never read (there are none to read) — the
        // declared length alone rejects the request.
        let wire = b"POST /v1/parse HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n";
        let error = read(wire).unwrap_err();
        assert!(matches!(
            error,
            HttpError::PayloadTooLarge {
                declared: 999_999_999,
                limit: 1024
            }
        ));
        assert_eq!(error.status(), Some((413, "Payload Too Large")));
    }

    #[test]
    fn unparseable_content_length_is_bad_request() {
        for value in ["-1", "abc", "1e3", "18446744073709551616"] {
            let wire = format!("POST /v1/parse HTTP/1.1\r\nContent-Length: {value}\r\n\r\n");
            assert!(matches!(
                read(wire.as_bytes()),
                Err(HttpError::BadRequest(_))
            ));
        }
    }

    #[test]
    fn body_shorter_than_declared_is_bad_request() {
        let wire = b"POST /v1/parse HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        assert!(matches!(read(wire), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn oversized_lines_headers_and_paths_are_typed_errors() {
        let long_line = format!(
            "GET /{} HTTP/1.1\r\n\r\n",
            "a".repeat(MAX_REQUEST_LINE_BYTES)
        );
        assert!(matches!(
            read(long_line.as_bytes()),
            Err(HttpError::BadRequest(_))
        ));

        let long_path = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_PATH_BYTES + 1));
        assert!(matches!(
            read(long_path.as_bytes()),
            Err(HttpError::UriTooLong)
        ));

        let many_headers = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            "X-H: v\r\n".repeat(MAX_HEADERS + 1)
        );
        assert!(matches!(
            read(many_headers.as_bytes()),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn chunked_transfer_encoding_is_rejected() {
        let wire = b"POST /v1/parse HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        assert!(matches!(read(wire), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn slow_writes_time_out_as_typed_errors_over_a_real_socket() {
        use std::net::{TcpListener, TcpStream};

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            // Half a request line, then stall far past the read timeout.
            stream.write_all(b"POST /v1/par").unwrap();
            std::thread::sleep(std::time::Duration::from_millis(300));
            stream
        });
        let (server_side, _) = listener.accept().unwrap();
        server_side
            .set_read_timeout(Some(std::time::Duration::from_millis(50)))
            .unwrap();
        let mut reader = BufReader::new(server_side);
        let error = read_request(&mut reader, 1024).unwrap_err();
        assert!(matches!(error, HttpError::Timeout), "got {error:?}");
        assert_eq!(error.status(), Some((408, "Request Timeout")));
        drop(client.join().unwrap());

        // An idle keep-alive peer (zero bytes sent) is the quiet variant.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let idle = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side
            .set_read_timeout(Some(std::time::Duration::from_millis(50)))
            .unwrap();
        let mut reader = BufReader::new(server_side);
        let error = read_request(&mut reader, 1024).unwrap_err();
        assert!(matches!(error, HttpError::IdleTimeout), "got {error:?}");
        assert!(error.status().is_none());
        drop(idle);
    }

    #[test]
    fn pipelined_requests_parse_back_to_back_from_one_stream() {
        let wire = b"POST /v1/parse HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi\
                     GET /metrics HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(&wire[..]);
        let first = read_request(&mut reader, 1024).unwrap().unwrap();
        assert_eq!(first.method, "POST");
        assert_eq!(first.body, b"hi");
        let second = read_request(&mut reader, 1024).unwrap().unwrap();
        assert_eq!(second.method, "GET");
        assert_eq!(second.path, "/metrics");
        assert!(read_request(&mut reader, 1024).unwrap().is_none());

        // The client writer's output parses back through the server reader.
        let mut wire = Vec::new();
        write_request(
            &mut wire,
            "POST",
            "/v1/parse",
            b"{\"utterance\": \"hi\"}",
            true,
        )
        .unwrap();
        write_request(&mut wire, "GET", "/metrics", b"", false).unwrap();
        let mut reader = BufReader::new(&wire[..]);
        let first = read_request(&mut reader, 1024).unwrap().unwrap();
        assert_eq!(
            first,
            Request {
                method: "POST".to_owned(),
                path: "/v1/parse".to_owned(),
                body: b"{\"utterance\": \"hi\"}".to_vec(),
                keep_alive: true,
            }
        );
        let second = read_request(&mut reader, 1024).unwrap().unwrap();
        assert_eq!(
            (second.method.as_str(), second.path.as_str()),
            ("GET", "/metrics")
        );
        assert!(second.body.is_empty());
        assert!(!second.keep_alive);
        assert!(read_request(&mut reader, 1024).unwrap().is_none());
    }

    #[test]
    fn responses_round_trip_through_the_client_reader() {
        let mut wire = Vec::new();
        write_response(
            &mut wire,
            503,
            "Service Unavailable",
            "application/json",
            b"{\"degraded\": true}",
            false,
            &[
                ("Retry-After", "2".to_owned()),
                ("Allow", "GET, POST".to_owned()),
            ],
        )
        .unwrap();
        let response = read_response(&mut BufReader::new(&wire[..]), 1024).unwrap();
        assert_eq!(response.status, 503);
        assert_eq!(response.body, b"{\"degraded\": true}");
        assert_eq!(response.text(), "{\"degraded\": true}");
        assert_eq!(response.header("Retry-After"), Some("2"));
        assert_eq!(response.header("Allow"), Some("GET, POST"));
        // Header lookup ignores case.
        assert_eq!(response.header("retry-after"), Some("2"));
        assert_eq!(response.header("CONTENT-LENGTH"), Some("18"));
        assert_eq!(response.header("connection"), Some("close"));
        assert_eq!(response.header("X-Missing"), None);

        // Too many headers, a header without a colon, and a stream closed
        // before the status line are typed errors too.
        let many_headers = format!(
            "HTTP/1.1 200 OK\r\n{}Content-Length: 0\r\n\r\n",
            "X-H: v\r\n".repeat(MAX_HEADERS)
        );
        assert!(matches!(
            read_response(&mut BufReader::new(many_headers.as_bytes()), 1024),
            Err(HttpError::BadRequest(_))
        ));
        let colonless = b"HTTP/1.1 200 OK\r\nno colon here\r\nContent-Length: 0\r\n\r\n";
        assert!(matches!(
            read_response(&mut BufReader::new(&colonless[..]), 1024),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            read_response(&mut BufReader::new(&b""[..]), 1024),
            Err(HttpError::Closed)
        ));

        // Oversized and truncated bodies are typed errors.
        let oversized = b"HTTP/1.1 200 OK\r\nContent-Length: 99999\r\n\r\n";
        assert!(matches!(
            read_response(&mut BufReader::new(&oversized[..]), 1024),
            Err(HttpError::PayloadTooLarge { .. })
        ));
        let truncated = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort";
        assert!(matches!(
            read_response(&mut BufReader::new(&truncated[..]), 1024),
            Err(HttpError::BadRequest(_))
        ));
        let unframed = b"HTTP/1.1 200 OK\r\n\r\n";
        assert!(matches!(
            read_response(&mut BufReader::new(&unframed[..]), 1024),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn responses_are_fully_framed() {
        let mut wire = Vec::new();
        write_response(
            &mut wire,
            200,
            "OK",
            "application/json",
            b"{\"ok\":true}",
            true,
            &[("Retry-After", "2".to_owned())],
        )
        .unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }
}
