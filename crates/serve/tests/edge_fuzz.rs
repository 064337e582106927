//! Byte-level fuzzing of the HTTP edge.
//!
//! Valid requests are mutated with byte flips, inserts, deletions and
//! truncation. The starting requests are recommends of 1 and of 256
//! users (each at `n: 100` with explanations on and the longest
//! deadline), an explain, a rate, a rate batch and `GET /healthz`. Each
//! case goes to an in-process 60×40 server on a fresh socket, which the
//! client then half-closes. Every byte that comes back must parse as a
//! sequence of well-formed HTTP/1.1 responses, each with a status in
//! {2xx, 4xx, 504} (4xx includes 429); the server must then close the
//! connection; and `/healthz` must answer 200 after every case.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

use exrec_obs::Telemetry;
use exrec_serve::app::{AppConfig, ExplainApp};
use exrec_serve::server::{self, ServerConfig, ServerHandle};
use proptest::prelude::*;
use proptest::sample::Index;

/// Longest wait for the server to answer and close: the 30 s request
/// deadline plus slack. A case still open after this is a hang.
const CLOSE_TIMEOUT: Duration = Duration::from_secs(60);

/// The server every case talks to, started on first use.
fn server() -> SocketAddr {
    static SERVER: OnceLock<ServerHandle> = OnceLock::new();
    SERVER
        .get_or_init(|| {
            let app = ExplainApp::new(
                AppConfig {
                    n_users: 60,
                    n_items: 40,
                    density: 0.3,
                    ..AppConfig::default()
                },
                Telemetry::default(),
            );
            let mut config = ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                workers: 2,
                ..ServerConfig::default()
            };
            // Heavy valid cases breach the latency objective by design;
            // a zero target keeps the SLO burn rules (and their flight
            // dumps) quiet.
            config.watch.slo_target = 0.0;
            server::start(app, config, Telemetry::default()).expect("start server")
        })
        .addr()
}

/// The valid requests the mutations start from.
fn seeds() -> Vec<Vec<u8>> {
    let post = |path: &str, body: &str| {
        format!(
            "POST {path} HTTP/1.1\r\nhost: fuzz\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    };
    let recommend = |users: &[String]| {
        format!(
            r#"{{"users": [{}], "n": 100, "explain": true, "deadline_ms": 30000}}"#,
            users.join(", ")
        )
    };
    let many: Vec<String> = (0..256).map(|u| (u % 60).to_string()).collect();
    vec![
        post("/v1/recommend", &recommend(&["3".to_owned()])),
        post("/v1/recommend", &recommend(&many)),
        post("/v1/explain", r#"{"user": 5, "item": 10}"#),
        post("/v1/rate", r#"{"user": 3, "item": 7, "value": 5.0}"#),
        post(
            "/v1/rate/batch",
            r#"{"ops": [{"user": 5, "item": 9, "value": 4.0}, {"user": 8, "item": 4}]}"#,
        ),
        b"GET /healthz HTTP/1.1\r\nhost: fuzz\r\n\r\n".to_vec(),
    ]
}

/// One byte-level edit. Positions resolve against the request as it
/// stands when the edit applies.
#[derive(Debug, Clone)]
enum Edit {
    /// XOR the byte at the position with a non-zero mask.
    Flip(Index, u8),
    /// Insert a byte before the position (or at the end).
    Insert(Index, u8),
    /// Remove up to this many bytes from the position on.
    Delete(Index, usize),
    /// Keep only the bytes before the position.
    Truncate(Index),
}

fn edit() -> impl Strategy<Value = Edit> {
    // Half the flips touch one bit, which often keeps the request
    // valid (`3` becomes `2`) and so reaches the handlers.
    let mask = prop_oneof![(0u8..8).prop_map(|bit| 1u8 << bit), 1u8..=255];
    prop_oneof![
        (any::<Index>(), mask).prop_map(|(at, mask)| Edit::Flip(at, mask)),
        (any::<Index>(), any::<u8>()).prop_map(|(at, byte)| Edit::Insert(at, byte)),
        (any::<Index>(), 1usize..9).prop_map(|(at, len)| Edit::Delete(at, len)),
        any::<Index>().prop_map(Edit::Truncate),
    ]
}

fn apply(mut bytes: Vec<u8>, edits: &[Edit]) -> Vec<u8> {
    for edit in edits {
        match *edit {
            Edit::Flip(at, mask) if !bytes.is_empty() => {
                let i = at.index(bytes.len());
                bytes[i] ^= mask;
            }
            Edit::Insert(at, byte) => bytes.insert(at.index(bytes.len() + 1), byte),
            Edit::Delete(at, len) if !bytes.is_empty() => {
                let i = at.index(bytes.len());
                bytes.drain(i..(i + len).min(bytes.len()));
            }
            Edit::Truncate(at) => bytes.truncate(at.index(bytes.len() + 1)),
            _ => {}
        }
    }
    bytes
}

/// Sends `raw` on a fresh connection, half-closes it and returns every
/// byte the server sent before it closed.
fn exchange(addr: SocketAddr, raw: &[u8]) -> Result<Vec<u8>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(CLOSE_TIMEOUT))
        .map_err(|e| format!("read timeout: {e}"))?;
    // The server may answer and close before it has read everything;
    // what it sent is still judged below.
    let _ = stream.write_all(raw);
    let _ = stream.shutdown(Shutdown::Write);
    let mut received = Vec::new();
    match stream.read_to_end(&mut received) {
        Ok(_) => Ok(received),
        Err(e) if e.kind() == ErrorKind::ConnectionReset => Ok(received),
        Err(e) => Err(format!(
            "no close within {CLOSE_TIMEOUT:?} ({e}) after {} bytes",
            received.len()
        )),
    }
}

/// Splits `bytes` into HTTP/1.1 responses framed by `content-length`
/// and returns their statuses.
fn statuses(mut bytes: &[u8]) -> Result<Vec<u16>, String> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        let end = bytes
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .ok_or("a response head without its blank line")?;
        let head = std::str::from_utf8(&bytes[..end]).map_err(|_| "a non-UTF-8 head")?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status = match status_line.splitn(3, ' ').collect::<Vec<_>>()[..] {
            ["HTTP/1.1", code, reason] if !reason.is_empty() => code.parse::<u16>().ok(),
            _ => None,
        }
        .filter(|code| (100..600).contains(code))
        .ok_or(format!("bad status line {status_line:?}"))?;
        let mut length = None;
        for line in lines {
            let (name, value) = line
                .split_once(':')
                .ok_or(format!("bad header line {line:?}"))?;
            if name.eq_ignore_ascii_case("content-length") {
                let value = value.trim().parse::<usize>();
                length = Some(value.map_err(|_| format!("bad content-length {line:?}"))?);
            }
        }
        let length = length.ok_or("a response without content-length")?;
        let body = &bytes[end + 4..];
        if body.len() < length {
            return Err(format!("body cut short: {} of {length} bytes", body.len()));
        }
        out.push(status);
        bytes = &body[length..];
    }
    Ok(out)
}

fn allowed(status: u16) -> bool {
    matches!(status, 200..=299 | 400..=499 | 504)
}

/// The status of a plain `GET /healthz` on a fresh connection.
fn healthz(addr: SocketAddr) -> Result<Vec<u16>, String> {
    statuses(&exchange(
        addr,
        b"GET /healthz HTTP/1.1\r\nhost: fuzz\r\n\r\n",
    )?)
}

#[test]
fn unmutated_requests_succeed() {
    let addr = server();
    for seed in seeds() {
        let answer = statuses(&exchange(addr, &seed).unwrap()).unwrap();
        assert_eq!(answer, [200], "{}", String::from_utf8_lossy(&seed));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_requests_get_well_formed_answers_then_a_close(
        seed in any::<Index>(),
        edits in prop::collection::vec(edit(), 1..4),
    ) {
        let addr = server();
        let seeds = seeds();
        let raw = apply(seeds[seed.index(seeds.len())].clone(), &edits);
        let sent = String::from_utf8_lossy(&raw).into_owned();
        let received = exchange(addr, &raw);
        prop_assert!(received.is_ok(), "{:?} for {sent:?}", received);
        let answer = statuses(received.as_deref().unwrap_or_default());
        prop_assert!(answer.is_ok(), "{:?} for {sent:?}", answer);
        let answer = answer.unwrap_or_default();
        prop_assert!(answer.iter().all(|&s| allowed(s)), "statuses {answer:?} for {sent:?}");
        let health = healthz(addr);
        prop_assert!(health == Ok(vec![200]), "/healthz gave {health:?} after {sent:?}");
    }
}
