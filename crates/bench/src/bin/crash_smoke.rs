//! `crash_smoke` — kill -9 the serving edge and prove nothing is lost.
//!
//! Drives the real `serve` binary (located next to this executable)
//! through the crash-recovery contract of the write-ahead log:
//!
//! 1. **Live:** start `serve --wal-path`, apply a deterministic set of
//!    journaled writes over HTTP (`/v1/rate`, `/v1/rate/batch`, a
//!    retract), capture recommendation bodies, then SIGKILL the
//!    process — no drain, no compaction, the WAL tail is all there is.
//! 2. **Replay:** restart over the same journal. The world must come
//!    back through WAL tail replay (`/debug/ingest` shows `replayed >
//!    0`, no snapshot) and serve byte-identical recommendation bodies.
//!    Then shut down *cleanly* (SIGTERM), which drains and compacts.
//! 3. **Mismatch:** start `serve` over the same journal with one user
//!    more (`--users 301`). The snapshot no longer fits the generated
//!    world, so it must exit non-zero before it binds, leaving the WAL
//!    and the snapshot byte for byte as they were.
//! 4. **Control:** restart once more (the third life). This time the
//!    world loads from the compaction snapshot (`snapshot_loaded`,
//!    `replayed == 0`) — the clean-shutdown control — and must again
//!    serve byte-identical bodies. Then hostile requests (deeply nested
//!    JSON, a chunked body, conflicting `Content-Length`s, a signed
//!    `Content-Length` and a header name with whitespace before its
//!    colon, the last four each hiding a second request) must each get
//!    one 400 and a close, after which `/healthz` reads `ok` with no
//!    incident ever opened (the real binary must not page itself), the
//!    bodies are unchanged and SIGTERM still exits cleanly.
//! 5. **Request log:** before that SIGTERM, the probe is sent once more
//!    with a 300 ms injected delay (every child runs with
//!    `--fault-injection`). It must answer the same bytes, and exactly
//!    one flight record the server logged to stderr must carry its
//!    `x-exrec-trace-id`, with route `recommend`. Every record logged in
//!    any life must have been bad by the SLO: a 5xx, or slower than the
//!    default 250 ms objective.
//! 6. **One account:** before that SIGTERM, `/debug/requests` and
//!    `/debug/profile` are read. The probe's record in the ring must
//!    be the line logged for it (same `seq`, `phases` and
//!    `duration_ns`), and the profile's `recommend` root must count
//!    exactly the ring's `recommend` records and sum their
//!    `duration_ns`; life 3 files far fewer requests than the ring
//!    holds, so every one is still there.
//!
//! Crash-replay ≡ live ≡ clean-shutdown restart, checked on raw bytes.
//! Exit code 0 only if every step holds. CI runs this as the
//! crash-recovery gate (see `.github/workflows/ci.yml`).

use std::io::{BufRead, BufReader, ErrorKind, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use exrec_obs::RequestRecord;
use exrec_serve::client::{self, Connection, Response};
use exrec_serve::proto::{DebugProfileBody, DebugRequestsBody};

/// The deterministic world every `serve` child regenerates (plus
/// `--users` [`USERS`]); small enough that three startups stay fast in
/// CI.
const WORLD: &[&str] = &["--items", "120", "--density", "0.2"];

/// Users in the served world.
const USERS: &str = "300";

/// Recommendation probe compared byte-for-byte across lives.
const PROBE: &str = r#"{"users": [0, 1, 2, 3, 5, 8], "n": 10}"#;

/// [`PROBE`], held 300 ms by fault injection: slower than the default
/// SLO objective, so the server logs its flight record.
const SLOW_PROBE: &str = r#"{"users": [0, 1, 2, 3, 5, 8], "n": 10, "inject_delay_ms": 300}"#;

/// The `serve` default latency objective, nanoseconds.
const SLO_OBJECTIVE_NS: u64 = 250_000_000;

fn fail(msg: &str) -> ! {
    eprintln!("[crash_smoke] FAIL: {msg}");
    std::process::exit(1);
}

/// A `serve` child plus the address parsed from its stderr banner.
struct Server {
    child: Child,
    addr: SocketAddr,
    /// The thread draining the child's stderr; at end of file it returns
    /// the flight records the child logged (watchdog dumps excluded).
    log: JoinHandle<Vec<RequestRecord>>,
}

/// The sibling `serve` binary over `wal`, generating a world of `users`
/// users, with stderr piped.
fn serve_command(wal: &Path, users: &str) -> Command {
    let serve = std::env::current_exe()
        .expect("own path")
        .with_file_name("serve");
    let mut command = Command::new(serve);
    command
        .args(["--port", "0", "--workers", "2", "--debug-endpoints"])
        .arg("--fault-injection")
        .args(["--users", users])
        .args(WORLD)
        .arg("--wal-path")
        .arg(wal)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    command
}

/// Spawns `serve` against `wal` and waits for its listening banner.
/// A thread keeps draining stderr afterwards so the child never blocks
/// on a full pipe, keeping the flight records the child logs there.
fn spawn_serve(wal: &Path) -> Server {
    let mut child = serve_command(wal, USERS)
        .spawn()
        .unwrap_or_else(|e| fail(&format!("spawn serve: {e}")));
    let stderr = child.stderr.take().expect("piped stderr");
    let (tx, rx) = mpsc::channel();
    let log = std::thread::spawn(move || {
        let mut reader = BufReader::new(stderr);
        let mut line = String::new();
        let (mut records, mut in_dump) = (Vec::new(), false);
        while reader.read_line(&mut line).unwrap_or(0) > 0 {
            let text = line.trim_end();
            if let Some(rest) = text.strip_prefix("[serve] listening on ") {
                if let Some(addr) = rest.split_whitespace().next() {
                    let _ = tx.send(addr.to_owned());
                }
            } else if text.starts_with("[flight] === dump") {
                in_dump = true;
            } else if text.starts_with("[flight] === end dump") {
                in_dump = false;
            } else if text.starts_with("{\"seq\"") && !in_dump {
                match serde_json::from_str(text) {
                    Ok(record) => records.push(record),
                    Err(e) => fail(&format!("unparseable logged record {text:?}: {e}")),
                }
            }
            line.clear();
        }
        records
    });
    let addr = rx
        .recv_timeout(Duration::from_secs(120))
        .unwrap_or_else(|_| fail("serve never printed its listening banner"));
    let addr = addr
        .parse()
        .unwrap_or_else(|_| fail(&format!("unparseable listen address {addr:?}")));
    Server { child, addr, log }
}

/// One request on a fresh connection.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Response {
    client::request(addr, method, path, &[], body)
        .unwrap_or_else(|e| fail(&format!("{method} {path}: {e}")))
}

fn post_ok(addr: SocketAddr, path: &str, body: &str) -> String {
    let response = request(addr, "POST", path, body);
    if response.status != 200 {
        fail(&format!(
            "POST {path} -> {}: {}",
            response.status, response.body
        ));
    }
    response.body
}

/// The body of a `GET` of debug surface `path`.
fn debug<T: serde::Deserialize>(addr: SocketAddr, path: &str) -> T {
    let response = request(addr, "GET", path, "");
    if response.status != 200 {
        fail(&format!("GET {path} -> {}", response.status));
    }
    serde_json::from_str(&response.body).unwrap_or_else(|e| fail(&format!("{path} parse: {e}")))
}

/// Requests a sound edge must refuse: 20,000 nested `[` (a stack
/// overflow in a parser without a depth limit), and four bodies whose
/// framing hides a `GET /healthz` that a parser ignoring
/// `Transfer-Encoding`, taking the first of two `Content-Length`s,
/// taking a signed length or trimming a header name would answer as a
/// second request.
fn hostile_requests() -> [(&'static str, String); 5] {
    let nested = "[".repeat(20_000);
    [
        (
            "nested JSON",
            format!(
                "POST /v1/recommend HTTP/1.1\r\nhost: crash-smoke\r\nconnection: close\r\n\
                 content-length: {}\r\n\r\n{nested}",
                nested.len()
            ),
        ),
        (
            "chunked body",
            "POST /v1/recommend HTTP/1.1\r\nhost: crash-smoke\r\n\
             transfer-encoding: chunked\r\n\r\nGET /healthz HTTP/1.1\r\nhost: crash-smoke\r\n\r\n"
                .to_owned(),
        ),
        (
            "conflicting content-length",
            "POST /v1/recommend HTTP/1.1\r\nhost: crash-smoke\r\ncontent-length: 2\r\n\
             content-length: 40\r\n\r\n{}GET /healthz HTTP/1.1\r\nhost: crash-smoke\r\n\r\n"
                .to_owned(),
        ),
        (
            "signed content-length",
            "POST /v1/recommend HTTP/1.1\r\nhost: crash-smoke\r\ncontent-length: +2\r\n\r\n\
             {}GET /healthz HTTP/1.1\r\nhost: crash-smoke\r\n\r\n"
                .to_owned(),
        ),
        (
            "whitespace before the colon",
            "POST /v1/recommend HTTP/1.1\r\nhost: crash-smoke\r\ncontent-length : 2\r\n\r\n\
             {}GET /healthz HTTP/1.1\r\nhost: crash-smoke\r\n\r\n"
                .to_owned(),
        ),
    ]
}

/// Sends each hostile request alone on a fresh connection. Each must get
/// exactly one 400, after which the server closes the connection.
fn refuse_hostile_requests(addr: SocketAddr) {
    for (label, raw) in hostile_requests() {
        let mut conn = Connection::open(addr).unwrap_or_else(|e| fail(&format!("connect: {e}")));
        conn.send_raw(raw.as_bytes())
            .unwrap_or_else(|e| fail(&format!("{label}: send: {e}")));
        let response = conn
            .read_response()
            .unwrap_or_else(|e| fail(&format!("{label}: {e}")));
        if response.status != 400 {
            fail(&format!(
                "{label}: wanted 400, got {}: {}",
                response.status, response.body
            ));
        }
        conn.stream()
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        match conn.read_response() {
            Ok(second) => fail(&format!(
                "{label}: a second response followed the 400: {second:?}"
            )),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::UnexpectedEof | ErrorKind::ConnectionReset
                ) => {}
            Err(e) => fail(&format!("{label}: wanted a close after the 400, got {e}")),
        }
    }
}

/// Starts `serve` over the compacted journal with one user more than
/// the snapshot holds. It must exit non-zero without binding, and leave
/// the journal and its snapshot as they were.
fn refuse_mismatched_restart(wal: &Path) {
    let snap = exrec_data::wal::snapshot_path(wal);
    let files = || (std::fs::read(wal).ok(), std::fs::read(&snap).ok());
    let before = files();
    let mut child = serve_command(wal, "301")
        .spawn()
        .unwrap_or_else(|e| fail(&format!("spawn serve: {e}")));
    let mut stderr = child.stderr.take().expect("piped stderr");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut log = String::new();
        let _ = stderr.read_to_string(&mut log);
        let _ = tx.send(log);
    });
    let Ok(log) = rx.recv_timeout(Duration::from_secs(120)) else {
        let _ = child.kill();
        let _ = child.wait();
        fail("a 301-user serve over the 300-user snapshot kept running");
    };
    let status = child.wait().unwrap_or_else(|e| fail(&format!("wait: {e}")));
    if status.success() || log.contains("listening on") {
        fail(&format!(
            "a 301-user serve over the 300-user snapshot exited {status}: {log}"
        ));
    }
    if files() != before {
        fail("the refused start changed the journal or its snapshot");
    }
}

/// The flight records a child logged, read to the end of its stderr.
fn logged_records(log: JoinHandle<Vec<RequestRecord>>) -> Vec<RequestRecord> {
    log.join()
        .unwrap_or_else(|_| fail("the stderr reader panicked"))
}

/// SIGTERM the child and wait for a clean exit (the drain compacts);
/// returns the flight records it logged.
fn terminate(mut server: Server) -> Vec<RequestRecord> {
    let pid = server.child.id().to_string();
    let status = Command::new("kill")
        .arg(&pid)
        .status()
        .unwrap_or_else(|e| fail(&format!("kill {pid}: {e}")));
    if !status.success() {
        fail(&format!("kill {pid} exited {status}"));
    }
    let exit = server
        .child
        .wait()
        .unwrap_or_else(|e| fail(&format!("wait: {e}")));
    if !exit.success() {
        fail(&format!("serve exited {exit} after SIGTERM"));
    }
    logged_records(server.log)
}

/// Sends [`PROBE`] held past the SLO objective; it must answer `live`.
/// Returns its trace id.
fn slow_probe(addr: SocketAddr, live: &str) -> String {
    let response = request(addr, "POST", "/v1/recommend", SLOW_PROBE);
    if response.status != 200 || response.body != live {
        fail(&format!(
            "the delayed probe answered {}: {}",
            response.status, response.body
        ));
    }
    response
        .header("x-exrec-trace-id")
        .unwrap_or_else(|| fail("the delayed probe carried no trace id"))
        .to_owned()
}

/// Checks the request log of all three lives: exactly one record
/// carries the delayed probe's trace id, on route `recommend`, and
/// every record was bad by the SLO as the server counts it.
fn check_request_log(records: &[RequestRecord], probe_trace: &str) {
    let probes: Vec<&RequestRecord> = records
        .iter()
        .filter(|r| r.trace_id == probe_trace)
        .collect();
    if probes.len() != 1 || probes[0].route != "recommend" {
        fail(&format!(
            "wanted one logged recommend record for trace {probe_trace}, got {probes:?}"
        ));
    }
    for record in records {
        if record.status < 500 && record.duration_ns <= SLO_OBJECTIVE_NS {
            fail(&format!("a request good by the SLO was logged: {record:?}"));
        }
    }
}

/// Checks that the profile's `recommend` root is the sum of the ring's
/// `recommend` records, and that the delayed probe's ring record is the
/// line the server logged for it.
fn check_account(
    (requests, profile): &(DebugRequestsBody, DebugProfileBody),
    logged: &[RequestRecord],
    probe_trace: &str,
) {
    if requests.recorded > requests.capacity as u64 {
        fail("life 3 filed more requests than its flight ring holds");
    }
    let recommends = || requests.requests.iter().filter(|r| r.route == "recommend");
    let calls = recommends().count() as u64;
    let total_ns: u64 = recommends().map(|r| r.duration_ns).sum();
    let root = profile
        .routes
        .iter()
        .find(|r| r.name == "recommend")
        .unwrap_or_else(|| fail("/debug/profile has no recommend route"));
    if (root.calls, root.total_ns) != (calls, total_ns) {
        fail(&format!(
            "the recommend profile root reads {} calls and {} ns; the ring's recommend \
             records number {calls} and sum to {total_ns} ns",
            root.calls, root.total_ns
        ));
    }
    let ring = recommends().find(|r| r.trace_id == probe_trace);
    let line = logged.iter().find(|r| r.trace_id == probe_trace);
    let (Some(ring), Some(line)) = (ring, line) else {
        fail("the delayed probe is missing from the ring or the log");
    };
    if (ring.seq, &ring.phases, ring.duration_ns) != (line.seq, &line.phases, line.duration_ns) {
        fail(&format!(
            "the delayed probe's ring record differs from its logged line: {ring:?} vs {line:?}"
        ));
    }
}

fn main() {
    let started = Instant::now();
    let dir = std::env::temp_dir().join(format!("exrec-crash-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let wal = dir.join("serve.wal");

    // Life 1: journaled writes, then SIGKILL — the tail is everything.
    eprintln!("[crash_smoke] life 1: starting serve, applying writes");
    let mut server = spawn_serve(&wal);
    for k in 0u32..32 {
        let body = format!(
            r#"{{"user": {}, "item": {}, "value": {:.1}}}"#,
            (k * 7) % 300,
            (k * 11) % 120,
            1.0 + (k % 5) as f64,
        );
        post_ok(server.addr, "/v1/rate", &body);
    }
    post_ok(
        server.addr,
        "/v1/rate/batch",
        r#"{"ops": [
            {"user": 5, "item": 9, "value": 5.0},
            {"user": 8, "item": 4, "value": 2.0},
            {"user": 13, "item": 21, "value": 3.0}
        ]}"#,
    );
    // Retract one of the writes above, so replay must also reproduce a
    // removal, not just upserts.
    post_ok(server.addr, "/v1/rate", r#"{"user": 5, "item": 9}"#);
    let live = post_ok(server.addr, "/v1/recommend", PROBE);
    eprintln!("[crash_smoke] life 1: SIGKILL (no drain, no compaction)");
    server.child.kill().expect("SIGKILL serve");
    let _ = server.child.wait();
    let mut logged = logged_records(server.log);
    if exrec_data::wal::snapshot_path(&wal).exists() {
        fail("a SIGKILLed server must not have compacted");
    }

    // Life 2: recover from the WAL tail alone; then shut down cleanly.
    eprintln!("[crash_smoke] life 2: restarting over the WAL tail");
    let server = spawn_serve(&wal);
    let ingest = debug::<serde_json::Value>(server.addr, "/debug/ingest");
    if ingest.get("snapshot_loaded").and_then(|v| v.as_bool()) != Some(false) {
        fail("life 2 found a snapshot that should not exist");
    }
    let replayed = ingest
        .pointer("/wal/replayed")
        .and_then(|v| v.as_u64())
        .unwrap_or(0);
    if replayed != 34 {
        fail(&format!("life 2 replayed {replayed} records, wanted 34"));
    }
    let recovered = post_ok(server.addr, "/v1/recommend", PROBE);
    if recovered != live {
        fail("crash-replay served different recommendations than the live world");
    }
    eprintln!("[crash_smoke] life 2: identical after replaying {replayed} records; SIGTERM");
    logged.extend(terminate(server));
    if !exrec_data::wal::snapshot_path(&wal).exists() {
        fail("a clean shutdown must compact the journal");
    }

    // A world of another shape must refuse the snapshot before binding.
    eprintln!("[crash_smoke] mismatch: starting a 301-user serve over the snapshot");
    refuse_mismatched_restart(&wal);

    // Life 3: the clean-shutdown control — snapshot, empty tail.
    eprintln!("[crash_smoke] life 3: restarting from the compaction snapshot");
    let server = spawn_serve(&wal);
    let ingest = debug::<serde_json::Value>(server.addr, "/debug/ingest");
    if ingest.get("snapshot_loaded").and_then(|v| v.as_bool()) != Some(true) {
        fail("life 3 must warm-start from the compaction snapshot");
    }
    if ingest.pointer("/wal/replayed").and_then(|v| v.as_u64()) != Some(0) {
        fail("life 3 must find an empty tail after compaction");
    }
    let control = post_ok(server.addr, "/v1/recommend", PROBE);
    if control != live {
        fail("clean-shutdown restart served different recommendations than the live world");
    }

    // Hostile input: each refused with one 400 and a close, and the
    // process keeps serving the same world.
    eprintln!("[crash_smoke] life 3: hostile requests");
    refuse_hostile_requests(server.addr);
    let health = request(server.addr, "GET", "/healthz", "");
    if health.status != 200 {
        fail(&format!(
            "GET /healthz -> {} after hostile requests",
            health.status
        ));
    }
    let health: serde_json::Value = serde_json::from_str(&health.body)
        .unwrap_or_else(|e| fail(&format!("GET /healthz body: {e}")));
    let status = health.get("status").and_then(|v| v.as_str());
    let opened = health.pointer("/incidents/opened").and_then(|v| v.as_u64());
    if status != Some("ok") || opened != Some(0) {
        fail(&format!(
            "the server paged itself: /healthz status {status:?}, incidents opened {opened:?}"
        ));
    }
    if post_ok(server.addr, "/v1/recommend", PROBE) != live {
        fail("recommendations changed after hostile requests");
    }

    // The request log: a probe held past the objective is logged once.
    eprintln!("[crash_smoke] life 3: a probe slower than the SLO objective");
    let probe_trace = slow_probe(server.addr, &live);
    let account = (
        debug(server.addr, "/debug/requests"),
        debug(server.addr, "/debug/profile"),
    );
    logged.extend(terminate(server));
    check_request_log(&logged, &probe_trace);
    check_account(&account, &logged, &probe_trace);

    let _ = std::fs::remove_dir_all(&dir);
    eprintln!(
        "[crash_smoke] OK: crash-replay == live == clean-shutdown control ({} bytes probed, \
         logged records: {}, {:.1}s)",
        live.len(),
        logged.len(),
        started.elapsed().as_secs_f64()
    );
}
