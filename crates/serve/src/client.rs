//! A small blocking HTTP/1.1 client for the edge's own tools and tests
//! (`obs_top`, `crash_smoke` and the socket-level integration tests).
//!
//! It speaks the subset the edge serves: `Content-Length` framing, one
//! request at a time per connection, responses read in order. It is
//! lenient where the server is strict (a header line without a colon is
//! skipped), so the byte-level fuzz test keeps its own strict parser.
//!
//! ```no_run
//! use exrec_serve::client::{self, Connection};
//!
//! // Keep-alive: several requests over one connection.
//! let mut conn = Connection::open("127.0.0.1:8787")?;
//! let health = conn.roundtrip("GET", "/healthz", "")?;
//! assert_eq!(health.status, 200);
//! let recs = conn.roundtrip("POST", "/v1/recommend", r#"{"users": [3], "n": 2}"#)?;
//! println!("{}", recs.body);
//!
//! // One-shot: a fresh socket, closed after the response.
//! let text = client::request("127.0.0.1:8787", "GET", "/metrics", &[("accept", "text/plain")], "")?;
//! assert_eq!(text.header("content-type"), Some("text/plain; version=0.0.4"));
//! # Ok::<(), std::io::Error>(())
//! ```

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Read timeout a fresh [`Connection`] starts with; change it through
/// [`Connection::stream`].
pub const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One parsed response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// `(name, value)` pairs in wire order, names lowercased and both
    /// trimmed.
    pub headers: Vec<(String, String)>,
    /// The `Content-Length` body.
    pub body: String,
}

impl Response {
    /// The first value of header `name`, matched case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// A keep-alive connection: requests go out in order and their
/// responses are read back in the same order.
#[derive(Debug)]
pub struct Connection {
    reader: BufReader<TcpStream>,
}

impl Connection {
    /// Connects to `addr` and sets a [`READ_TIMEOUT`] read timeout.
    ///
    /// # Errors
    ///
    /// The connect or socket-option failure.
    pub fn open(addr: impl ToSocketAddrs) -> io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Connection {
            reader: BufReader::new(stream),
        })
    }

    /// The socket, for timeouts and half-closes.
    pub fn stream(&self) -> &TcpStream {
        self.reader.get_ref()
    }

    /// Writes `raw` to the socket unchanged.
    ///
    /// # Errors
    ///
    /// The write failure.
    pub fn send_raw(&mut self, raw: &[u8]) -> io::Result<()> {
        self.reader.get_mut().write_all(raw)
    }

    /// Sends one request: the request line, `headers`, and `body`
    /// (`""` for none) framed by `Content-Length`.
    ///
    /// # Errors
    ///
    /// The write failure.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> io::Result<()> {
        let mut raw = format!("{method} {path} HTTP/1.1\r\nhost: exrec\r\n");
        for (name, value) in headers {
            raw.push_str(&format!("{name}: {value}\r\n"));
        }
        raw.push_str(&format!("content-length: {}\r\n\r\n{body}", body.len()));
        self.send_raw(raw.as_bytes())
    }

    /// Reads the next response.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::UnexpectedEof`] when the peer closed the
    /// connection before a status line, which is how a test sees that
    /// the server hung up; [`io::ErrorKind::InvalidData`] for a bad
    /// status line, a bad `Content-Length`, a non-UTF-8 body or a close
    /// in mid-response; any socket error, including a read timeout, as
    /// it is.
    pub fn read_response(&mut self) -> io::Result<Response> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid(format!("bad status line {line:?}")))?;
        let mut headers = Vec::new();
        let mut content_length = 0u64;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(invalid("connection closed mid-headers"));
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let (name, value) = (name.trim().to_ascii_lowercase(), value.trim().to_owned());
            if name == "content-length" {
                content_length = value
                    .parse()
                    .map_err(|_| invalid(format!("bad content-length {value:?}")))?;
            }
            headers.push((name, value));
        }
        // The body grows as bytes arrive, so a peer's declared length
        // never sizes an allocation by itself.
        let mut body = Vec::new();
        (&mut self.reader)
            .take(content_length)
            .read_to_end(&mut body)?;
        if body.len() as u64 != content_length {
            return Err(invalid("connection closed mid-body"));
        }
        let body = String::from_utf8(body).map_err(|e| invalid(e.to_string()))?;
        Ok(Response {
            status,
            headers,
            body,
        })
    }

    /// [`send`](Connection::send) with no extra headers, then
    /// [`read_response`](Connection::read_response).
    ///
    /// # Errors
    ///
    /// As for those two.
    pub fn roundtrip(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        self.send(method, path, &[], body)?;
        self.read_response()
    }
}

/// One request on a fresh connection, sent with `connection: close`.
///
/// # Errors
///
/// As for [`Connection::open`], [`Connection::send`] and
/// [`Connection::read_response`].
pub fn request(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> io::Result<Response> {
    let mut conn = Connection::open(addr)?;
    let mut headers = headers.to_vec();
    headers.push(("connection", "close"));
    conn.send(method, path, &headers, body)?;
    conn.read_response()
}

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}
