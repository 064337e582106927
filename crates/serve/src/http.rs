//! Minimal HTTP/1.1 framing over `std::net`.
//!
//! The serving edge needs exactly four things from HTTP: parse a request
//! (line + headers + `Content-Length` body), honour keep-alive, write a
//! response with correct framing, and distinguish "peer went away" from
//! "peer sent garbage" from "peer sat idle past the reaping timeout".
//! This module provides those four and nothing else — no chunked
//! encoding, no TLS, no HTTP/2 — because the wire protocol
//! (`docs/serving.md`) only ever exchanges small JSON bodies. A request
//! carrying `Transfer-Encoding` or more than one `Content-Length` is
//! malformed: its body could otherwise be read as the next request.

use std::io::{self, BufRead, BufReader, Read, Write};

use serde::Serialize;

/// Hard cap on a single header line, bytes. Longer lines are malformed.
const MAX_HEADER_LINE: usize = 8 * 1024;

/// Hard cap on the number of headers per request.
const MAX_HEADERS: usize = 64;

/// Why reading a request failed.
#[derive(Debug)]
pub enum HttpError {
    /// The socket failed or timed out; `is_timeout` distinguishes the
    /// idle-reaping case.
    Io(io::Error),
    /// The peer sent bytes that do not frame as HTTP/1.1.
    Malformed(String),
    /// The declared body exceeds the server's configured cap.
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// Configured maximum.
        limit: usize,
    },
}

impl HttpError {
    /// Whether this is a read timeout — the signal the connection sat
    /// idle past the reaping deadline rather than misbehaving.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            HttpError::Io(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
        )
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o: {e}"),
            HttpError::Malformed(detail) => write!(f, "malformed request: {detail}"),
            HttpError::BodyTooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds limit {limit}")
            }
        }
    }
}

/// A parsed HTTP/1.x request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Request target as sent (path + optional query).
    pub path: String,
    /// `1` for HTTP/1.1, `0` for HTTP/1.0.
    pub minor_version: u8,
    /// Header name/value pairs in arrival order; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of the header named `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the peer wants the connection kept open after the
    /// response: HTTP/1.1 defaults to yes unless `Connection: close`,
    /// HTTP/1.0 defaults to no unless `Connection: keep-alive`.
    pub fn wants_keep_alive(&self) -> bool {
        match self.header("connection").map(str::to_ascii_lowercase) {
            Some(v) if v.contains("close") => false,
            Some(v) if v.contains("keep-alive") => true,
            _ => self.minor_version >= 1,
        }
    }
}

/// Reads one line terminated by `\n`, stripping the trailing `\r\n`.
/// Returns `Ok(None)` on clean EOF before any byte.
fn read_line<R: BufRead>(reader: &mut R) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::Malformed("EOF mid-line".to_owned()));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line)
                        .map(Some)
                        .map_err(|_| HttpError::Malformed("non-UTF-8 header line".to_owned()));
                }
                line.push(byte[0]);
                if line.len() > MAX_HEADER_LINE {
                    return Err(HttpError::Malformed("header line too long".to_owned()));
                }
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

/// Reads and parses one request off `reader`.
///
/// Returns `Ok(None)` when the peer closed the connection cleanly
/// between requests (the normal keep-alive end).
///
/// # Errors
///
/// [`HttpError::Io`] on socket failure or read timeout (see
/// [`HttpError::is_timeout`]), [`HttpError::Malformed`] on framing
/// violations, [`HttpError::BodyTooLarge`] when `Content-Length`
/// exceeds `max_body`.
pub fn read_request<R: Read>(
    reader: &mut BufReader<R>,
    max_body: usize,
) -> Result<Option<Request>, HttpError> {
    let Some(request_line) = read_line(reader)? else {
        return Ok(None);
    };
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m.to_ascii_uppercase(), p.to_owned(), v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    let minor_version = match version {
        "HTTP/1.1" => 1,
        "HTTP/1.0" => 0,
        other => {
            return Err(HttpError::Malformed(format!(
                "unsupported version {other:?}"
            )))
        }
    };

    let mut headers = Vec::new();
    loop {
        let line =
            read_line(reader)?.ok_or_else(|| HttpError::Malformed("EOF in headers".to_owned()))?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header without colon: {line:?}")))?;
        // A field name is a token (RFC 9112 §5.1): whitespace before the
        // colon, or a folded continuation line, must not frame anything.
        if name.bytes().any(|b| b.is_ascii_whitespace()) {
            return Err(HttpError::Malformed(format!(
                "whitespace in header name: {line:?}"
            )));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
        if headers.len() > MAX_HEADERS {
            return Err(HttpError::Malformed("too many headers".to_owned()));
        }
    }

    // A body is framed by exactly one `Content-Length`. A chunked body
    // or a second length would leave body bytes in the stream to be
    // read as the next keep-alive request, so both are malformed.
    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Err(HttpError::Malformed(
            "transfer-encoding is not supported".to_owned(),
        ));
    }
    let mut lengths = headers.iter().filter(|(n, _)| n == "content-length");
    let content_length = match (lengths.next(), lengths.next()) {
        (None, _) => 0,
        (Some((_, v)), None) => match v.parse::<usize>() {
            // Digits only: `usize::from_str` also takes a leading `+`.
            Ok(n) if v.bytes().all(|b| b.is_ascii_digit()) => n,
            _ => return Err(HttpError::Malformed(format!("bad content-length {v:?}"))),
        },
        (Some(_), Some(_)) => {
            return Err(HttpError::Malformed("repeated content-length".to_owned()))
        }
    };
    if content_length > max_body {
        return Err(HttpError::BodyTooLarge {
            declared: content_length,
            limit: max_body,
        });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(HttpError::Io)?;

    Ok(Some(Request {
        method,
        path,
        minor_version,
        headers,
        body,
    }))
}

/// An HTTP response ready for the wire.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// `Retry-After` seconds, sent with load-shedding 429s.
    pub retry_after: Option<u64>,
    /// Additional headers, written in order (e.g. `x-exrec-trace-id`).
    pub extra_headers: Vec<(String, String)>,
}

impl Response {
    /// A JSON response serializing `body`.
    pub fn json<T: Serialize>(status: u16, body: &T) -> Response {
        let body = serde_json::to_string(body)
            .unwrap_or_else(|_| "{\"error\":\"serialization\"}".to_owned());
        Response {
            status,
            body: body.into_bytes(),
            content_type: "application/json",
            retry_after: None,
            extra_headers: Vec::new(),
        }
    }

    /// A plain-text response with an explicit content type (the
    /// Prometheus exposition endpoint needs
    /// `text/plain; version=0.0.4`).
    pub fn text(status: u16, body: String, content_type: &'static str) -> Response {
        Response {
            status,
            body: body.into_bytes(),
            content_type,
            retry_after: None,
            extra_headers: Vec::new(),
        }
    }

    /// Attaches a `Retry-After` header (seconds).
    pub fn with_retry_after(mut self, seconds: u64) -> Response {
        self.retry_after = Some(seconds);
        self
    }

    /// Attaches an arbitrary header. Names should be lower-case; values
    /// must not contain CR/LF (the caller controls both here).
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.extra_headers.push((name.to_owned(), value.into()));
        self
    }

    /// The reason phrase for the status codes this server emits.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Unknown",
        }
    }

    /// Writes the response with correct `Content-Length` framing and a
    /// `Connection` header matching `keep_alive`.
    pub fn write_to<W: Write>(&self, writer: &mut W, keep_alive: bool) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            Response::reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        if let Some(seconds) = self.retry_after {
            head.push_str(&format!("retry-after: {seconds}\r\n"));
        }
        for (name, value) in &self.extra_headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        writer.write_all(head.as_bytes())?;
        writer.write_all(&self.body)?;
        writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(Cursor::new(raw.as_bytes())), 1024)
    }

    #[test]
    fn parses_get_with_headers() {
        let req = parse("GET /healthz HTTP/1.1\r\nHost: x\r\nX-Tag: 7\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("X-TAG"), Some("7"));
        assert!(req.wants_keep_alive());
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_body_by_content_length() {
        let req = parse("POST /v1/explain HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcd")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn keep_alive_defaults_by_version() {
        let v11 = parse("GET / HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert!(v11.wants_keep_alive());
        let v11_close = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!v11_close.wants_keep_alive());
        let v10 = parse("GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!v10.wants_keep_alive());
        let v10_ka = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(v10_ka.wants_keep_alive());
    }

    #[test]
    fn clean_eof_is_none_and_garbage_is_malformed() {
        assert!(parse("").unwrap().is_none());
        assert!(matches!(parse("ZZZ\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(
            parse("GET / HTTP/2.0\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn transfer_encoding_is_malformed() {
        // Unsupported, so the body's framing is unknown: reading on would
        // parse the chunk bytes as the next request.
        for encoding in ["chunked", "identity", "gzip, chunked"] {
            let raw = format!(
                "POST /v1/recommend HTTP/1.1\r\nTransfer-Encoding: {encoding}\r\n\r\n\
                 GET /healthz HTTP/1.1\r\n\r\n"
            );
            assert!(
                matches!(parse(&raw), Err(HttpError::Malformed(_))),
                "{encoding}"
            );
        }
        let with_length = "POST / HTTP/1.1\r\ncontent-length: 2\r\n\
                           transfer-encoding: chunked\r\n\r\n{}";
        assert!(matches!(parse(with_length), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn repeated_content_length_is_malformed() {
        // Conflicting lengths: the first would frame `{}` and leave a
        // pipelined GET inside the second length as its own request.
        let conflicting = "POST /v1/recommend HTTP/1.1\r\ncontent-length: 2\r\n\
                           Content-Length: 40\r\n\r\n{}GET /healthz HTTP/1.1\r\n\r\n";
        assert!(matches!(parse(conflicting), Err(HttpError::Malformed(_))));
        // Agreeing duplicates are rejected too: one length, one framing.
        let repeated = "POST / HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 2\r\n\r\n{}";
        assert!(matches!(parse(repeated), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn content_length_takes_digits_only() {
        // RFC 9112 allows digits only. `usize::from_str` also takes `+2`,
        // and a proxy that refuses it frames the bytes differently.
        for length in [
            "+2",
            "-2",
            "0x2",
            "2 2",
            "2.0",
            "",
            "99999999999999999999999",
        ] {
            let raw = format!(
                "POST /v1/recommend HTTP/1.1\r\ncontent-length: {length}\r\n\r\n\
                 {{}}GET /healthz HTTP/1.1\r\n\r\n"
            );
            assert!(
                matches!(parse(&raw), Err(HttpError::Malformed(_))),
                "{length:?}"
            );
        }
        // Whitespace around the value is optional whitespace, not part of it.
        let padded = parse("POST / HTTP/1.1\r\ncontent-length:  2 \r\n\r\n{}").unwrap();
        assert_eq!(padded.unwrap().body, b"{}");
    }

    #[test]
    fn whitespace_before_the_colon_is_malformed() {
        // RFC 9112 §5.1: a server must answer 400, not trim the name.
        for header in [
            "content-length : 2",
            "content-length\t: 2",
            "Host : x",
            " content-length: 2",
        ] {
            let raw = format!(
                "POST /v1/recommend HTTP/1.1\r\nhost: x\r\n{header}\r\n\r\n\
                 {{}}GET /healthz HTTP/1.1\r\n\r\n"
            );
            assert!(
                matches!(parse(&raw), Err(HttpError::Malformed(_))),
                "{header:?}"
            );
        }
    }

    #[test]
    fn pipelined_requests_frame_by_their_one_length() {
        let raw = "POST /v1/explain HTTP/1.1\r\ncontent-length: 2\r\n\r\n{}\
                   GET /healthz HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(Cursor::new(raw.as_bytes()));
        let post = read_request(&mut reader, 1024).unwrap().unwrap();
        assert_eq!(post.body, b"{}");
        let get = read_request(&mut reader, 1024).unwrap().unwrap();
        assert_eq!(
            (get.method.as_str(), get.path.as_str()),
            ("GET", "/healthz")
        );
        assert!(read_request(&mut reader, 1024).unwrap().is_none());
    }

    #[test]
    fn oversized_body_is_rejected_before_allocation() {
        let err = parse("POST / HTTP/1.1\r\ncontent-length: 99999\r\n\r\n").unwrap_err();
        assert!(matches!(err, HttpError::BodyTooLarge { limit: 1024, .. }));
    }

    #[test]
    fn response_frames_body_and_connection() {
        let mut out = Vec::new();
        Response::json(200, &serde_json::to_value(&"ok"))
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 4"));
        assert!(text.contains("connection: keep-alive"));
        assert!(text.ends_with("\r\n\r\n\"ok\""));
    }

    #[test]
    fn extra_headers_and_text_responses_frame_correctly() {
        let mut out = Vec::new();
        Response::text(
            200,
            "serve_requests 1\n".to_owned(),
            "text/plain; version=0.0.4",
        )
        .with_header("x-exrec-trace-id", "00000000000000000000000000000abc")
        .write_to(&mut out, false)
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("content-type: text/plain; version=0.0.4\r\n"));
        assert!(text.contains("x-exrec-trace-id: 00000000000000000000000000000abc\r\n"));
        assert!(text.ends_with("\r\n\r\nserve_requests 1\n"));
    }

    #[test]
    fn shed_response_carries_retry_after() {
        let mut out = Vec::new();
        Response::json(429, &serde_json::to_value(&"shed"))
            .with_retry_after(1)
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains("connection: close"));
    }
}
