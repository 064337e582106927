//! `loadgen` — open-loop load generator for the `exrec-serve` edge.
//!
//! Drives a concurrency sweep against a running server (or one it
//! spawns in-process on loopback) and records latency percentiles plus
//! the shed/timeout counts that prove admission control works
//! (`BENCH_serve_net.json`, see `docs/benchmarking.md`).
//!
//! **Open loop.** Request *i* of a sweep point is scheduled at
//! `start + i / offered_rps`, independent of when earlier responses
//! arrive, and its latency is measured from that scheduled instant —
//! so a slow server accrues queueing delay in the numbers instead of
//! silently slowing the generator down (no coordinated omission). A
//! fixed pool of client threads executes the schedule; each request
//! uses a fresh connection (`Connection: close`), which is what makes
//! the server's per-connection admission control observable.
//!
//! ```text
//! loadgen                      # full sweep, spawns a server in-process
//! loadgen --quick              # CI smoke: small world, short sweep
//! loadgen --ingest             # mixed 90/10 read/write benchmark on the
//!                              # 100k world → BENCH_serve_ingest.json,
//!                              # plus a restart-recovery identity check
//! loadgen --addr HOST:PORT     # target an already-running server
//! loadgen --out PATH           # report path (default BENCH_serve_net.json)
//! loadgen --incident           # watchdog smoke: induce an error burst,
//!                              # assert exactly one latched incident
//! ```
//!
//! The request mix includes journaled writes (`POST /v1/rate`), so the
//! in-process server runs with a temp `--wal-path`; the final metrics
//! scrape requires the `ingest_*`/`wal_*` families alongside `serve_*`.
//! `--ingest` additionally proves recovery: after the sweep drains (and
//! compacts), the world is reopened from the snapshot — and again from
//! snapshot + a freshly written WAL tail — asserting bit-identical
//! recommendations each time.
//!
//! Exit code is non-zero when any response falls outside the expected
//! classes (2xx, 422 explanation-withheld, 429 shed, 504 deadline), a
//! 2xx arrives without its
//! `x-exrec-trace-id` header, any transport error occurs, or the final
//! `/metrics` scrape (with `Accept: text/plain`) fails the Prometheus
//! exposition checks in [`exrec_bench::promcheck`] — CI runs `--quick`
//! as a correctness gate on the edge.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use exrec_obs::Telemetry;
use exrec_serve::app::{AppConfig, ExplainApp};
use exrec_serve::server::{self, ServerConfig, ServerHandle};
use serde::Serialize;

/// One point of the sweep: an offered arrival rate and a request count.
struct SweepPoint {
    name: &'static str,
    offered_rps: f64,
    requests: usize,
    clients: usize,
    /// Per-request deadline sent on the wire, ms (`None` = server default).
    deadline_ms: Option<u64>,
}

const FULL_SWEEP: &[SweepPoint] = &[
    SweepPoint {
        name: "light",
        offered_rps: 50.0,
        requests: 400,
        clients: 8,
        deadline_ms: None,
    },
    SweepPoint {
        name: "moderate",
        offered_rps: 200.0,
        requests: 1_200,
        clients: 16,
        deadline_ms: None,
    },
    SweepPoint {
        name: "heavy",
        offered_rps: 600.0,
        requests: 2_400,
        clients: 32,
        deadline_ms: Some(2_000),
    },
    // Far above capacity with a small admission queue: most of this
    // point MUST be shed with 429s while admitted requests stay correct.
    SweepPoint {
        name: "overload",
        offered_rps: 4_000.0,
        requests: 4_000,
        clients: 48,
        deadline_ms: Some(1_000),
    },
];

/// The `--ingest` sweep: a 90/10 read/write mix against the synthetic
/// 100k-user world (100k × 500 @ 0.1), offered well inside
/// capacity — the point is the latency of reads *while writes flow*
/// (plus CSR re-patch cost landing on the next read), not overload.
/// Rates are sized for the 1-core bench machine (~35 ms/scan).
const INGEST_SWEEP: &[SweepPoint] = &[
    SweepPoint {
        name: "mixed-light",
        offered_rps: 6.0,
        requests: 180,
        clients: 8,
        deadline_ms: None,
    },
    SweepPoint {
        name: "mixed-moderate",
        offered_rps: 12.0,
        requests: 360,
        clients: 12,
        deadline_ms: None,
    },
];

const INGEST_QUICK_SWEEP: &[SweepPoint] = &[SweepPoint {
    name: "mixed-quick",
    offered_rps: 50.0,
    requests: 200,
    clients: 8,
    deadline_ms: None,
}];

const QUICK_SWEEP: &[SweepPoint] = &[
    SweepPoint {
        name: "light-quick",
        offered_rps: 50.0,
        requests: 120,
        clients: 8,
        deadline_ms: None,
    },
    SweepPoint {
        name: "overload-quick",
        offered_rps: 2_000.0,
        requests: 600,
        clients: 24,
        deadline_ms: Some(1_000),
    },
];

/// Outcome of one request; the expected classes carry their latency
/// (from scheduled arrival) so the report can digest each class
/// separately — a fast 429 and a slow 504 are different stories.
enum Outcome {
    Ok2xx(f64),
    Shed429(f64),
    Timeout504(f64),
    /// A 2xx without the `x-exrec-trace-id` header — fails the run
    /// (every routed response must carry its trace id).
    NoTraceHeader,
    /// 422 from `/v1/explain`: the server withheld an explanation it
    /// could not justify. Correct behaviour for some user/item pairs
    /// in the mix, so counted but not a failure.
    Unprocessable422,
    /// Unexpected status class — fails the run.
    Unexpected(u16),
    /// Socket-level failure — fails the run.
    Transport,
}

/// Latency digest in milliseconds.
#[derive(Clone, Serialize)]
struct LatencyMs {
    p50: f64,
    p95: f64,
    p99: f64,
    mean: f64,
    max: f64,
}

#[derive(Serialize)]
struct PointReport {
    name: &'static str,
    offered_rps: f64,
    clients: usize,
    requests: usize,
    status_2xx: usize,
    unprocessable_422: usize,
    shed_429: usize,
    timeout_504: usize,
    unexpected: usize,
    transport_errors: usize,
    wall_ms: f64,
    achieved_rps: f64,
    /// Successful writes (`/v1/rate*` 2xx), a subset of `status_2xx`.
    write_2xx: usize,
    /// Latencies of successful **read** (2xx) requests, from scheduled
    /// arrival. This is the digest `benchdiff` gates on; keeping writes
    /// out preserves comparability with pre-ingest baselines.
    latency_ms: LatencyMs,
    /// Latencies of successful **write** (2xx) requests; absent when no
    /// write succeeded (e.g. everything shed under overload).
    write_latency_ms: Option<LatencyMs>,
    /// Per-class latency digests (`"2xx"`, `"write_2xx"`, `"429"`,
    /// `"504"`), present only for classes that occurred. Not gated:
    /// shed/timeout latency is diagnostic, not an objective.
    class_latency_ms: std::collections::BTreeMap<String, LatencyMs>,
}

#[derive(Serialize)]
struct ServerInfo {
    addr: String,
    in_process: bool,
    workers: usize,
    queue_bound: usize,
    default_deadline_ms: u64,
    world_users: usize,
    world_items: usize,
}

/// Outcome of the `--ingest` restart-recovery identity check: the
/// served world, reopened from its compaction snapshot and then from
/// snapshot + a fresh WAL tail, must recommend bit-identically.
#[derive(Serialize)]
struct RecoveryReport {
    /// Restart after a clean drain loaded the compaction snapshot and
    /// served recommendations identical to the live server's.
    snapshot_restart_identical: bool,
    /// Records in the WAL tail written (uncompacted) after the snapshot.
    tail_records_replayed: u64,
    /// Restart over snapshot + tail replay reproduced the post-write
    /// recommendations exactly.
    replay_restart_identical: bool,
}

#[derive(Serialize)]
struct LoadgenReport {
    /// Report-layout version `benchdiff` checks before comparing.
    schema_version: u32,
    benchmark: &'static str,
    quick: bool,
    /// Build/world stamp (`benchdiff` refuses cross-world diffs).
    meta: exrec_bench::benchdiff::RunMeta,
    server: ServerInfo,
    points: Vec<PointReport>,
    /// Present only for `--ingest` runs against the in-process server.
    #[serde(skip_serializing_if = "Option::is_none")]
    recovery: Option<RecoveryReport>,
}

/// The deterministic 90/10 read/write mix: mostly plain ranking, some
/// explained ranking, some single-pair explanations, and one journaled
/// write per ten requests (every fifth write a 3-op batch).
///
/// With `single_read` the plain-ranking case ranks ONE user (one scan
/// per read), so the `--ingest` read p50 is one scan's latency while
/// writes flow.
fn request_body(
    i: usize,
    n_users: usize,
    deadline_ms: Option<u64>,
    single_read: bool,
) -> (&'static str, String) {
    let user = (i * 17) % n_users;
    let deadline = deadline_ms
        .map(|ms| format!(", \"deadline_ms\": {ms}"))
        .unwrap_or_default();
    match i % 10 {
        // 10%: one explained pair through /v1/explain.
        0 => (
            "/v1/explain",
            format!(
                "{{\"user\": {user}, \"item\": {}, \"interface\": \"item_average\"{deadline}}}",
                (i * 7) % 100
            ),
        ),
        // 20%: explained top-k.
        1 | 2 => (
            "/v1/recommend",
            format!("{{\"users\": [{user}], \"n\": 5, \"explain\": true{deadline}}}"),
        ),
        // 10%: a journaled write — whole-star upserts on catalog items.
        3 if i % 50 == 23 => (
            "/v1/rate/batch",
            format!(
                "{{\"ops\": [\
                 {{\"user\": {user}, \"item\": {}, \"value\": {:.1}}}, \
                 {{\"user\": {}, \"item\": {}, \"value\": {:.1}}}, \
                 {{\"user\": {user}, \"item\": {}}}]{deadline}}}",
                (i * 7) % 100,
                1.0 + ((i / 10) % 5) as f64,
                (user + 1) % n_users,
                (i * 13) % 100,
                1.0 + ((i / 7) % 5) as f64,
                (i * 3) % 100,
            ),
        ),
        3 => (
            "/v1/rate",
            format!(
                "{{\"user\": {user}, \"item\": {}, \"value\": {:.1}{deadline}}}",
                (i * 7) % 100,
                1.0 + ((i / 10) % 5) as f64,
            ),
        ),
        // 60%: plain top-k.
        _ if single_read => (
            "/v1/recommend",
            format!("{{\"users\": [{user}], \"n\": 10{deadline}}}"),
        ),
        _ => (
            "/v1/recommend",
            format!(
                "{{\"users\": [{user}, {}], \"n\": 10{deadline}}}",
                (user + 1) % n_users
            ),
        ),
    }
}

/// Sends one request on a fresh connection and classifies the outcome.
/// Latency is measured from `scheduled` (open-loop semantics).
fn fire(addr: SocketAddr, path: &str, body: &str, scheduled: Instant) -> Outcome {
    let Ok(stream) = TcpStream::connect(addr) else {
        return Outcome::Transport;
    };
    if stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .is_err()
    {
        return Outcome::Transport;
    }
    let request = format!(
        "POST {path} HTTP/1.1\r\nhost: loadgen\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len(),
    );
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return Outcome::Transport,
    };
    // The server may shed (answer + close) before reading the body; a
    // write error here still has a response waiting to be read.
    let _ = writer.write_all(request.as_bytes());
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    if reader.read_line(&mut status_line).unwrap_or(0) == 0 {
        return Outcome::Transport;
    }
    let Some(status) = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
    else {
        return Outcome::Transport;
    };
    // Drain headers + body so the latency covers the full response.
    let mut content_length = 0usize;
    let mut has_trace_id = false;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            return Outcome::Transport;
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
            if name.trim().eq_ignore_ascii_case("x-exrec-trace-id") {
                has_trace_id = !value.trim().is_empty();
            }
        }
    }
    let mut body = vec![0u8; content_length];
    if reader.read_exact(&mut body).is_err() {
        return Outcome::Transport;
    }
    let latency_ms = scheduled.elapsed().as_secs_f64() * 1e3;
    match status {
        200..=299 if has_trace_id => Outcome::Ok2xx(latency_ms),
        200..=299 => Outcome::NoTraceHeader,
        422 => Outcome::Unprocessable422,
        429 => Outcome::Shed429(latency_ms),
        504 => Outcome::Timeout504(latency_ms),
        other => Outcome::Unexpected(other),
    }
}

/// `GET /metrics` with `Accept: text/plain`, returning the content-type
/// header and the exposition body.
fn scrape_metrics(addr: SocketAddr) -> Option<(String, String)> {
    let stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .ok()?;
    let mut writer = stream.try_clone().ok()?;
    writer
        .write_all(
            b"GET /metrics HTTP/1.1\r\nhost: loadgen\r\naccept: text/plain\r\n\
              connection: close\r\ncontent-length: 0\r\n\r\n",
        )
        .ok()?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).ok()?;
    if status_line.split_whitespace().nth(1)? != "200" {
        return None;
    }
    let mut content_type = String::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).ok()? == 0 {
            return None;
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            match name.trim().to_ascii_lowercase().as_str() {
                "content-type" => content_type = value.trim().to_owned(),
                "content-length" => content_length = value.trim().parse().ok()?,
                _ => {}
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).ok()?;
    Some((content_type, String::from_utf8(body).ok()?))
}

/// Scrapes the exposition endpoint and validates it: correct content
/// type, grammatically valid per [`exrec_bench::promcheck`], and the
/// `serve_*` + `ingest_*` families present (`wal_*` and the
/// `ts_*`/`watch_*` telemetry families too when the server is the
/// in-process one, whose fast sampler tick and registered watchdog are
/// known). Returns the violations (empty = pass).
fn check_exposition(addr: SocketAddr, expect_wal: bool) -> Vec<String> {
    let Some((content_type, body)) = scrape_metrics(addr) else {
        return vec!["metrics scrape failed (transport or non-200)".to_owned()];
    };
    let mut errors = Vec::new();
    if content_type != "text/plain; version=0.0.4" {
        errors.push(format!(
            "unexpected exposition content-type {content_type:?}"
        ));
    }
    let mut report = exrec_bench::promcheck::check(&body);
    errors.append(&mut report.errors);
    for family in ["serve_requests", "serve_accepted", "serve_connections"] {
        if !report.has_family(family) {
            errors.push(format!("missing expected family {family}"));
        }
    }
    if report.families_with_prefix("serve_latency_ns").is_empty() {
        errors.push("no serve_latency_ns_* histogram family".to_owned());
    }
    // The sweep explains 10% of requests and the in-process server
    // samples every one (`quality_sample_every: 1`), so the quality
    // estimator must have exported its families by now.
    for family in ["quality_samples", "quality_fidelity"] {
        if !report.has_family(family) {
            errors.push(format!("missing expected family {family}"));
        }
    }
    if report.families_with_prefix("quality_score").is_empty() {
        errors.push("no quality_score* family".to_owned());
    }
    // The mix writes 10% of requests, so the ingestion families must be
    // exported; the journal gauges additionally require a WAL-backed
    // server (always true for the in-process one).
    for family in ["ingest_requests", "ingest_ops_applied"] {
        if !report.has_family(family) {
            errors.push(format!("missing expected family {family}"));
        }
    }
    if report.families_with_prefix("ingest_apply_ns").is_empty() {
        errors.push("no ingest_apply_ns* histogram family".to_owned());
    }
    if expect_wal {
        for family in ["wal_size_bytes", "wal_records", "wal_replayed"] {
            if !report.has_family(family) {
                errors.push(format!("missing expected family {family}"));
            }
        }
        if report
            .families_with_prefix("ingest_wal_append_ns")
            .is_empty()
        {
            errors.push("no ingest_wal_append_ns* histogram family".to_owned());
        }
        // The in-process server runs a fast sampler tick and a
        // registered watchdog, so the continuous-telemetry families
        // must have exported by sweep end.
        for family in [
            "ts_ticks",
            "ts_series",
            "watch_incidents",
            "watch_active",
            "watch_flight_dumps",
        ] {
            if !report.has_family(family) {
                errors.push(format!("missing expected family {family}"));
            }
        }
    }
    errors
}

/// `GET path` on a fresh connection, returning the parsed JSON body of
/// a 200. `None` on transport failure, non-200 or unparseable body.
fn fetch_json(addr: SocketAddr, path: &str) -> Option<serde_json::Value> {
    let stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .ok()?;
    let mut writer = stream.try_clone().ok()?;
    writer
        .write_all(
            format!(
                "GET {path} HTTP/1.1\r\nhost: loadgen\r\nconnection: close\r\n\
                 content-length: 0\r\n\r\n"
            )
            .as_bytes(),
        )
        .ok()?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).ok()?;
    if status_line.split_whitespace().nth(1)? != "200" {
        return None;
    }
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).ok()? == 0 {
            return None;
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok()?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).ok()?;
    serde_json::from_str(std::str::from_utf8(&body).ok()?).ok()
}

/// `POST path` with a JSON body on a fresh connection, returning the
/// parsed JSON of a 200. `None` on transport failure or non-200.
fn post_json(addr: SocketAddr, path: &str, body: &str) -> Option<serde_json::Value> {
    let stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(600)))
        .ok()?;
    let mut writer = stream.try_clone().ok()?;
    writer
        .write_all(
            format!(
                "POST {path} HTTP/1.1\r\nhost: loadgen\r\nconnection: close\r\n\
                 content-length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .ok()?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).ok()?;
    if status_line.split_whitespace().nth(1)? != "200" {
        return None;
    }
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).ok()? == 0 {
            return None;
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok()?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).ok()?;
    serde_json::from_str(std::str::from_utf8(&body).ok()?).ok()
}

/// Smokes the four `GET /debug/*` endpoints, validating each body's
/// JSON shape after the sweep has populated profiler, flight recorder
/// and quality estimator. Returns the violations (empty = pass).
fn check_debug_endpoints(addr: SocketAddr) -> Vec<String> {
    use serde_json::Value;
    let mut errors = Vec::new();

    match fetch_json(addr, "/debug/profile") {
        None => errors.push("GET /debug/profile failed or non-200".to_owned()),
        Some(body) => {
            let routes = body.get("routes").and_then(Value::as_array);
            match routes {
                None => errors.push("/debug/profile: missing routes[]".to_owned()),
                Some(routes) => {
                    if !routes.iter().any(|r| {
                        r.get("name").and_then(Value::as_str) == Some("recommend")
                            && r.get("calls").and_then(Value::as_u64).unwrap_or(0) > 0
                    }) {
                        errors.push(
                            "/debug/profile: no profiled recommend route after the sweep"
                                .to_owned(),
                        );
                    }
                }
            }
            match body.get("collapsed").and_then(Value::as_str) {
                None => errors.push("/debug/profile: missing collapsed text".to_owned()),
                Some(text) => {
                    let malformed = text.lines().any(|line| {
                        line.rsplit_once(' ')
                            .and_then(|(stack, n)| {
                                (!stack.is_empty()).then(|| n.parse::<u64>().ok())?
                            })
                            .is_none()
                    });
                    if malformed {
                        errors
                            .push("/debug/profile: collapsed line not `stack self_ns`".to_owned());
                    }
                }
            }
        }
    }

    match fetch_json(addr, "/debug/requests") {
        None => errors.push("GET /debug/requests failed or non-200".to_owned()),
        Some(body) => {
            if body.get("capacity").and_then(Value::as_u64).is_none()
                || body.get("recorded").and_then(Value::as_u64).is_none()
            {
                errors.push("/debug/requests: missing capacity/recorded".to_owned());
            }
            match body.get("requests").and_then(Value::as_array) {
                None => errors.push("/debug/requests: missing requests[]".to_owned()),
                Some([]) => {
                    errors.push("/debug/requests: flight ring empty after the sweep".to_owned())
                }
                Some(requests) => {
                    for field in ["trace_id", "route", "outcome"] {
                        if !requests.iter().all(|r| r.get(field).is_some()) {
                            errors.push(format!("/debug/requests: record missing {field}"));
                        }
                    }
                    if !requests.iter().any(|r| {
                        r.get("phases")
                            .and_then(Value::as_array)
                            .is_some_and(|p| !p.is_empty())
                    }) {
                        errors.push(
                            "/debug/requests: no record carries a phase breakdown".to_owned(),
                        );
                    }
                }
            }
        }
    }

    match fetch_json(addr, "/debug/quality") {
        None => errors.push("GET /debug/quality failed or non-200".to_owned()),
        Some(body) => {
            match body.get("offline").and_then(Value::as_array) {
                None => errors.push("/debug/quality: missing offline[]".to_owned()),
                Some([]) => {
                    errors.push("/debug/quality: startup scoring left no offline rows".to_owned())
                }
                Some(rows) => {
                    for field in ["name", "fidelity", "evidence_f1", "coverage"] {
                        if !rows.iter().all(|r| r.get(field).is_some()) {
                            errors.push(format!("/debug/quality: offline row missing {field}"));
                        }
                    }
                }
            }
            if body
                .pointer("/online/samples")
                .and_then(Value::as_u64)
                .unwrap_or(0)
                == 0
            {
                errors.push("/debug/quality: no online quality samples after the sweep".to_owned());
            }
            match body.get("selection").and_then(Value::as_array) {
                None => errors.push("/debug/quality: missing selection[]".to_owned()),
                Some(rows) => {
                    if rows.len() != 7 {
                        errors.push(format!(
                            "/debug/quality: {} selection rows, want one per aim",
                            rows.len()
                        ));
                    }
                    for field in ["aim", "selected", "score"] {
                        if !rows.iter().all(|r| r.get(field).is_some()) {
                            errors.push(format!("/debug/quality: selection row missing {field}"));
                        }
                    }
                }
            }
        }
    }

    match fetch_json(addr, "/debug/world") {
        None => errors.push("GET /debug/world failed or non-200".to_owned()),
        Some(body) => {
            for field in ["users", "items", "ratings"] {
                if body.get(field).and_then(Value::as_u64).unwrap_or(0) == 0 {
                    errors.push(format!("/debug/world: {field} missing or zero"));
                }
            }
            if body.get("model").and_then(Value::as_str).is_none() {
                errors.push("/debug/world: missing model name".to_owned());
            }
            // Satellite of the ingest subsystem: the scan block must
            // surface CSR-vs-matrix divergence and patch counters.
            for field in ["scan/csr_patches", "scan/index_patches"] {
                if body.pointer(&format!("/{field}")).is_none() {
                    errors.push(format!("/debug/world: missing {field}"));
                }
            }
        }
    }

    match fetch_json(addr, "/debug/ingest") {
        None => errors.push("GET /debug/ingest failed or non-200".to_owned()),
        Some(body) => {
            if body.get("requests").and_then(Value::as_u64).unwrap_or(0) == 0 {
                errors.push("/debug/ingest: no write requests counted after the sweep".to_owned());
            }
            if body.get("applied").and_then(Value::as_u64).unwrap_or(0) == 0 {
                errors.push("/debug/ingest: no ops applied after the sweep".to_owned());
            }
            if body.get("revision").and_then(Value::as_u64).unwrap_or(0) == 0 {
                errors.push("/debug/ingest: ratings revision never advanced".to_owned());
            }
            match body.get("wal") {
                None | Some(Value::Null) => {
                    errors.push("/debug/ingest: journaled server reports no wal block".to_owned())
                }
                Some(wal) => {
                    if wal.get("size_bytes").and_then(Value::as_u64).unwrap_or(0) == 0 {
                        errors
                            .push("/debug/ingest: wal.size_bytes is zero after writes".to_owned());
                    }
                }
            }
        }
    }

    match fetch_json(addr, "/debug/timeseries") {
        None => errors.push("GET /debug/timeseries failed or non-200".to_owned()),
        Some(body) => {
            for field in ["schema", "interval_ns", "retention"] {
                if body.get(field).and_then(Value::as_u64).unwrap_or(0) == 0 {
                    errors.push(format!("/debug/timeseries: {field} missing or zero"));
                }
            }
            if body.get("ticks").and_then(Value::as_u64).unwrap_or(0) == 0 {
                errors.push("/debug/timeseries: no sampler ticks after the sweep".to_owned());
            }
            match body
                .pointer("/counters/serve.accepted")
                .and_then(Value::as_array)
            {
                None | Some([]) => {
                    errors.push("/debug/timeseries: no serve.accepted rate series".to_owned())
                }
                Some(points) => {
                    for field in ["epoch", "delta", "rate_per_sec"] {
                        if !points.iter().all(|p| p.get(field).is_some()) {
                            errors.push(format!("/debug/timeseries: rate point missing {field}"));
                        }
                    }
                }
            }
            let windowed = body
                .get("histograms")
                .and_then(Value::as_object)
                .into_iter()
                .flat_map(|histograms| histograms.iter().map(|(_name, series)| series))
                .flat_map(|series| series.as_array().into_iter().flatten());
            let mut any_hist_point = false;
            for point in windowed {
                any_hist_point = true;
                let p50 = point.get("p50_ns").and_then(Value::as_u64);
                let p99 = point.get("p99_ns").and_then(Value::as_u64);
                match (p50, p99) {
                    (Some(p50), Some(p99)) if p50 <= p99 => {}
                    _ => {
                        errors.push(format!(
                            "/debug/timeseries: bad windowed digest point {point:?}"
                        ));
                        break;
                    }
                }
            }
            if !any_hist_point {
                errors.push("/debug/timeseries: no windowed histogram points".to_owned());
            }
        }
    }

    match fetch_json(addr, "/debug/incidents") {
        None => errors.push("GET /debug/incidents failed or non-200".to_owned()),
        Some(body) => {
            if body.get("capacity").and_then(Value::as_u64).unwrap_or(0) == 0 {
                errors.push("/debug/incidents: capacity missing or zero".to_owned());
            }
            for field in ["schema", "opened", "active", "flight_dumps"] {
                if body.get(field).and_then(Value::as_u64).is_none() {
                    errors.push(format!("/debug/incidents: missing {field}"));
                }
            }
            match body.get("incidents").and_then(Value::as_array) {
                None => errors.push("/debug/incidents: missing incidents[]".to_owned()),
                Some(incidents) => {
                    for field in ["seq", "rule", "kind", "opened_offset_ns"] {
                        if !incidents.iter().all(|i| i.get(field).is_some()) {
                            errors.push(format!("/debug/incidents: incident missing {field}"));
                        }
                    }
                }
            }
        }
    }

    errors
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts `latencies` in place and digests them (zeros when empty).
fn digest(latencies: &mut [f64]) -> LatencyMs {
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mean = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };
    LatencyMs {
        p50: percentile(latencies, 0.50),
        p95: percentile(latencies, 0.95),
        p99: percentile(latencies, 0.99),
        mean,
        max: latencies.last().copied().unwrap_or(0.0),
    }
}

/// Runs one sweep point with a fixed client-thread pool executing the
/// open-loop schedule.
fn run_point(
    addr: SocketAddr,
    n_users: usize,
    point: &SweepPoint,
    single_read: bool,
) -> PointReport {
    eprintln!(
        "[loadgen] point {:<14} offered {:>6.0} rps, {} requests, {} clients",
        point.name, point.offered_rps, point.requests, point.clients
    );
    let next = AtomicUsize::new(0);
    let outcomes: Mutex<Vec<(bool, Outcome)>> = Mutex::new(Vec::with_capacity(point.requests));
    let interval = Duration::from_secs_f64(1.0 / point.offered_rps);
    let started = Instant::now();

    std::thread::scope(|scope| {
        for _ in 0..point.clients {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= point.requests {
                        break;
                    }
                    let scheduled = started + interval.mul_f64(i as f64);
                    let now = Instant::now();
                    if scheduled > now {
                        std::thread::sleep(scheduled - now);
                    }
                    let (path, body) = request_body(i, n_users, point.deadline_ms, single_read);
                    let is_write = path.starts_with("/v1/rate");
                    local.push((is_write, fire(addr, path, &body, scheduled)));
                }
                outcomes
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .extend(local);
            });
        }
    });
    let wall = started.elapsed();

    let outcomes = outcomes.into_inner().unwrap_or_else(|p| p.into_inner());
    let mut read_latencies: Vec<f64> = Vec::new();
    let mut write_latencies: Vec<f64> = Vec::new();
    let mut shed_latencies: Vec<f64> = Vec::new();
    let mut timeout_latencies: Vec<f64> = Vec::new();
    let (mut ok, mut write_ok, mut unprocessable, mut shed, mut timeout) = (0, 0, 0, 0, 0);
    let (mut unexpected, mut transport) = (0, 0);
    for (is_write, outcome) in &outcomes {
        match outcome {
            Outcome::Ok2xx(ms) => {
                ok += 1;
                if *is_write {
                    write_ok += 1;
                    write_latencies.push(*ms);
                } else {
                    read_latencies.push(*ms);
                }
            }
            Outcome::Unprocessable422 => unprocessable += 1,
            Outcome::Shed429(ms) => {
                shed += 1;
                shed_latencies.push(*ms);
            }
            Outcome::Timeout504(ms) => {
                timeout += 1;
                timeout_latencies.push(*ms);
            }
            Outcome::NoTraceHeader => {
                eprintln!("[loadgen]   2xx without x-exrec-trace-id header");
                unexpected += 1;
            }
            Outcome::Unexpected(status) => {
                eprintln!("[loadgen]   unexpected status {status}");
                unexpected += 1;
            }
            Outcome::Transport => transport += 1,
        }
    }
    let read_digest = digest(&mut read_latencies);
    let write_digest = (!write_latencies.is_empty()).then(|| digest(&mut write_latencies));
    let mut class_latency_ms = std::collections::BTreeMap::new();
    if !read_latencies.is_empty() {
        class_latency_ms.insert("2xx".to_owned(), read_digest.clone());
    }
    if let Some(w) = &write_digest {
        class_latency_ms.insert("write_2xx".to_owned(), w.clone());
    }
    if !shed_latencies.is_empty() {
        class_latency_ms.insert("429".to_owned(), digest(&mut shed_latencies));
    }
    if !timeout_latencies.is_empty() {
        class_latency_ms.insert("504".to_owned(), digest(&mut timeout_latencies));
    }
    let report = PointReport {
        name: point.name,
        offered_rps: point.offered_rps,
        clients: point.clients,
        requests: point.requests,
        status_2xx: ok,
        unprocessable_422: unprocessable,
        shed_429: shed,
        timeout_504: timeout,
        unexpected,
        transport_errors: transport,
        wall_ms: wall.as_secs_f64() * 1e3,
        achieved_rps: outcomes.len() as f64 / wall.as_secs_f64(),
        write_2xx: write_ok,
        latency_ms: read_digest,
        write_latency_ms: write_digest,
        class_latency_ms,
    };
    eprintln!(
        "[loadgen]   2xx {} (writes {}) / 422 {} / shed {} / timeout {} / bad {} / transport {}",
        ok, write_ok, unprocessable, shed, timeout, unexpected, transport,
    );
    for (class, digest) in &report.class_latency_ms {
        eprintln!(
            "[loadgen]   {class}: p50 {:.1}ms p95 {:.1}ms p99 {:.1}ms mean {:.1}ms max {:.1}ms",
            digest.p50, digest.p95, digest.p99, digest.mean, digest.max
        );
    }
    report
}

/// Read-p50 ceiling for the full `--ingest` run: 2x the read-only
/// pruned scan p50 on the synthetic-100k world when the gate was set
/// (34.59 ms) — "reads hold their SLO while writes flow".
const INGEST_READ_P50_BUDGET_MS: f64 = 69.2;
/// Write-p50 ceiling for the full `--ingest` run.
const INGEST_WRITE_P50_BUDGET_MS: f64 = 5.0;

/// Neuters every tick-evaluated watchdog rule, so sweeps whose whole
/// point is to overload the edge (shed bursts, deadline storms) do not
/// spam incidents and flight dumps into the smoke logs. The
/// `--incident` mode re-arms exactly the rule it regresses.
fn disarm_watchdog(config: &mut ServerConfig) {
    config.watch.latency_zscore = 1e12;
    config.watch.error_rate_max = f64::INFINITY;
    config.watch.shed_rate_max = f64::INFINITY;
    config.watch.quality_min = -1.0;
    config.watch.revision_lag_max = f64::INFINITY;
    config.watch.prune_ratio_min = -1.0;
}

/// The incident smoke: spawn a faulty-injectable server with a fast
/// sampler tick and only the 5xx-rate rule armed, induce a panic burst
/// spanning several tick windows, and assert the full incident story —
/// exactly one latched incident, one flight dump, `/healthz` degraded,
/// and the `ts_*`/`watch_*` families valid under promcheck. Exits the
/// process with the verdict.
fn run_incident_smoke() -> ! {
    use serde_json::Value;
    eprintln!("[loadgen] incident smoke: inducing a 5xx burst");
    let mut server_config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_bound: 32,
        default_deadline_ms: 10_000,
        debug_endpoints: true,
        ..ServerConfig::default()
    };
    server_config.ts.interval_ns = 25_000_000;
    disarm_watchdog(&mut server_config);
    // Exactly one armed detector, and an effectively-infinite clear
    // threshold so the latch provably holds through recovery traffic.
    server_config.watch.error_rate_max = 0.5;
    server_config.watch.trip_after = 2;
    server_config.watch.clear_after = 1_000_000;
    server_config.slo.target = 0.0; // keep the SLO external trigger quiet
    let app_config = AppConfig {
        n_users: 200,
        n_items: 100,
        density: 0.1,
        fault_injection: true,
        quality_sample_every: 0,
        ..AppConfig::default()
    };
    let telemetry = Telemetry::default();
    let app = ExplainApp::new(app_config, telemetry.clone());
    let handle = server::start(app, server_config, telemetry).expect("spawn loopback server");
    let addr = handle.addr();
    let mut failures: Vec<String> = Vec::new();

    let clean = r#"{"users": [1], "n": 2}"#;
    let faulty = r#"{"users": [1], "inject_panic": true}"#;
    // Clean warmup across several tick windows.
    for _ in 0..20 {
        let _ = fire(addr, "/v1/recommend", clean, Instant::now());
        std::thread::sleep(Duration::from_millis(3));
    }
    // The regression: ~300ms of panicking requests (≈12 tick windows).
    let burst_deadline = Instant::now() + Duration::from_millis(300);
    while Instant::now() < burst_deadline {
        let _ = fire(addr, "/v1/recommend", faulty, Instant::now());
        std::thread::sleep(Duration::from_millis(3));
    }
    // Recovery traffic: the latch must hold and nothing new may open.
    for _ in 0..30 {
        let _ = fire(addr, "/v1/recommend", clean, Instant::now());
        std::thread::sleep(Duration::from_millis(3));
    }

    match fetch_json(addr, "/debug/incidents") {
        None => failures.push("GET /debug/incidents failed or non-200".to_owned()),
        Some(body) => {
            for (field, want) in [("opened", 1), ("active", 1), ("flight_dumps", 1)] {
                let got = body.get(field).and_then(Value::as_u64);
                if got != Some(want) {
                    failures.push(format!("/debug/incidents: {field} = {got:?}, want {want}"));
                }
            }
            match body.get("incidents").and_then(Value::as_array) {
                Some([incident]) => {
                    if incident.get("rule").and_then(Value::as_str) != Some("error_rate") {
                        failures.push(format!("incident is not the error_rate rule: {incident:?}"));
                    }
                    if !incident
                        .get("closed_epoch")
                        .is_some_and(|epoch| matches!(epoch, Value::Null))
                    {
                        failures.push("incident closed: the latch did not hold".to_owned());
                    }
                }
                other => failures.push(format!("want exactly one incident, got {other:?}")),
            }
        }
    }
    match fetch_json(addr, "/healthz") {
        None => failures.push("GET /healthz failed or non-200".to_owned()),
        Some(body) => {
            if body.get("status").and_then(Value::as_str) != Some("degraded") {
                failures.push(format!(
                    "healthz status {:?}, want \"degraded\" while an incident stands",
                    body.get("status")
                ));
            }
            if body.pointer("/incidents/active").and_then(Value::as_u64) != Some(1) {
                failures.push("healthz incident standing does not show 1 active".to_owned());
            }
        }
    }
    match fetch_json(addr, "/metrics") {
        None => failures.push("GET /metrics failed or non-200".to_owned()),
        Some(body) => {
            for (path, want) in [
                ("/counters/watch.incidents", 1),
                ("/counters/watch.flight_dumps", 1),
            ] {
                if body.pointer(path).and_then(Value::as_u64) != Some(want) {
                    failures.push(format!("metrics {path} != {want}"));
                }
            }
            if body
                .pointer("/counters/serve.panic")
                .and_then(Value::as_u64)
                .unwrap_or(0)
                == 0
            {
                failures.push("metrics serve.panic never incremented — no burst?".to_owned());
            }
            if body.pointer("/gauges/watch.active").and_then(Value::as_f64) != Some(1.0) {
                failures.push("metrics gauge watch.active != 1".to_owned());
            }
        }
    }
    // The telemetry families must also be grammatical Prometheus text.
    match scrape_metrics(addr) {
        None => failures.push("text /metrics scrape failed".to_owned()),
        Some((_content_type, text)) => {
            let mut report = exrec_bench::promcheck::check(&text);
            failures.append(&mut report.errors);
            for family in [
                "ts_ticks",
                "watch_incidents",
                "watch_active",
                "watch_flight_dumps",
            ] {
                if !report.has_family(family) {
                    failures.push(format!("missing expected family {family}"));
                }
            }
        }
    }

    handle.shutdown();
    if failures.is_empty() {
        eprintln!("[loadgen] incident smoke OK");
        std::process::exit(0);
    }
    for failure in &failures {
        eprintln!("[loadgen]   incident: {failure}");
    }
    eprintln!(
        "[loadgen] FAIL: incident smoke ({} violations)",
        failures.len()
    );
    std::process::exit(1);
}

fn main() {
    let mut quick = false;
    let mut ingest = false;
    let mut incident = false;
    let mut out: Option<String> = None;
    let mut external: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--ingest" => ingest = true,
            "--incident" => incident = true,
            "--out" => out = args.next().or(out),
            "--addr" => external = args.next(),
            other => {
                eprintln!(
                    "usage: loadgen [--quick] [--ingest] [--incident] [--addr HOST:PORT] [--out PATH] ({other:?}?)"
                );
                std::process::exit(2);
            }
        }
    }
    if incident {
        run_incident_smoke();
    }
    if ingest && external.is_some() {
        eprintln!("[loadgen] --ingest needs the in-process server (it restarts the world)");
        std::process::exit(2);
    }
    let out = out.unwrap_or_else(|| {
        if ingest {
            "BENCH_serve_ingest.json".to_owned()
        } else {
            "BENCH_serve_net.json".to_owned()
        }
    });

    // Edge tuning chosen so the overload point genuinely overruns the
    // queue: small admission bound, few workers. The ingest run is an
    // in-capacity latency measurement instead, so it gets a deeper
    // queue — shedding there would just hide the read-latency story.
    let mut server_config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 4,
        queue_bound: if ingest { 32 } else { 8 },
        default_deadline_ms: 2_000,
        // The smoke run validates the introspection surface too.
        debug_endpoints: true,
        ..ServerConfig::default()
    };
    // A fast sampler tick so the ts_* families and /debug/timeseries
    // fill during the sweep; the overload points overrun the edge *by
    // design*, so the anomaly rules are disarmed here (the dedicated
    // `--incident` smoke arms and asserts them).
    server_config.ts.interval_ns = 200_000_000;
    disarm_watchdog(&mut server_config);
    // Every in-process run journals to a temp WAL so the write mix and
    // the wal_* metric families are exercised end to end.
    let wal_dir = std::env::temp_dir().join(format!("exrec-loadgen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    std::fs::create_dir_all(&wal_dir).expect("create temp WAL dir");
    let app_config = if ingest && !quick {
        AppConfig {
            // The synthetic-100k reference world.
            n_users: 100_000,
            n_items: 500,
            density: 0.1,
            // Sampled scoring and a light startup book: quality is not
            // what this run measures, but the families must export.
            quality_sample_every: 8,
            quality_pairs: 2,
            wal_path: Some(wal_dir.join("serve.wal")),
            ..AppConfig::default()
        }
    } else {
        AppConfig {
            n_users: if quick { 500 } else { 2_000 },
            n_items: 300,
            density: 0.05,
            // Score every explained request so the smoke run exercises
            // the live quality estimator deterministically.
            quality_sample_every: 1,
            wal_path: external.is_none().then(|| wal_dir.join("serve.wal")),
            ..AppConfig::default()
        }
    };
    let n_users = app_config.n_users;
    let n_items = app_config.n_items;
    let world_desc = format!(
        "{}x{}@{}",
        app_config.n_users, app_config.n_items, app_config.density
    );

    let mut spawned: Option<ServerHandle> = None;
    let addr: SocketAddr = match &external {
        Some(addr) => addr.parse().unwrap_or_else(|_| {
            eprintln!("[loadgen] bad --addr {addr:?}");
            std::process::exit(2);
        }),
        None => {
            eprintln!(
                "[loadgen] spawning server in-process ({} users, {} workers, queue {})",
                n_users, server_config.workers, server_config.queue_bound
            );
            let telemetry = Telemetry::default();
            let app = ExplainApp::new(app_config.clone(), telemetry.clone());
            let handle = server::start(app, server_config.clone(), telemetry)
                .expect("spawn loopback server");
            let addr = handle.addr();
            spawned = Some(handle);
            addr
        }
    };

    // Warm the scan engine (CSR snapshot, index) so the sweep measures
    // steady state.
    eprintln!("[loadgen] warmup");
    for i in 0..24 {
        let (path, body) = request_body(i, n_users, None, ingest);
        let _ = fire(addr, path, &body, Instant::now());
    }

    let sweep = match (ingest, quick) {
        (true, false) => INGEST_SWEEP,
        (true, true) => INGEST_QUICK_SWEEP,
        (false, true) => QUICK_SWEEP,
        (false, false) => FULL_SWEEP,
    };
    let points: Vec<PointReport> = sweep
        .iter()
        .map(|point| run_point(addr, n_users, point, ingest))
        .collect();

    // Scrape /metrics as a Prometheus client would and validate the
    // exposition before the server goes away.
    eprintln!("[loadgen] validating /metrics exposition");
    let exposition_errors = check_exposition(addr, spawned.is_some());
    // The in-process server runs with --debug-endpoints; validate the
    // introspection surface too. An external server may not have the
    // flag on, so only the spawned case is gated.
    let debug_errors = if spawned.is_some() {
        eprintln!("[loadgen] validating /debug endpoints");
        check_debug_endpoints(addr)
    } else {
        Vec::new()
    };

    // Drain the server. Ingest runs additionally prove recovery on the
    // way out: restart from the compaction snapshot, then from snapshot
    // + a fresh WAL tail, asserting bit-identical recommendations.
    let mut quality_at_drain = None;
    let mut recovery = None;
    if let Some(handle) = spawned.take() {
        quality_at_drain = Some(handle.quality_snapshot());
        if ingest {
            recovery = Some(run_recovery_check(handle, addr, &app_config));
        } else {
            handle.shutdown();
        }
    }

    let report = LoadgenReport {
        schema_version: exrec_bench::benchdiff::SCHEMA_VERSION,
        benchmark: if ingest { "serve_ingest" } else { "serve_net" },
        quick,
        meta: exrec_bench::benchdiff::RunMeta::capture(world_desc, server_config.workers),
        server: ServerInfo {
            addr: addr.to_string(),
            in_process: external.is_none(),
            workers: server_config.workers,
            queue_bound: server_config.queue_bound,
            default_deadline_ms: server_config.default_deadline_ms,
            world_users: n_users,
            world_items: n_items,
        },
        points,
        recovery,
    };

    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    // Parse it back before writing: CI fails on a report that does not
    // round-trip (the "latency-report parse error" gate).
    if serde_json::from_str::<serde_json::Value>(&json).is_err() {
        eprintln!("[loadgen] FAIL: report does not parse back");
        std::process::exit(1);
    }
    std::fs::write(&out, &json).expect("write report");
    eprintln!("[loadgen] wrote {out}");

    if let Some(quality) = quality_at_drain {
        if quality.samples > 0 {
            eprintln!(
                "[loadgen] explanation quality at drain ({} samples, mean score {:.3}):",
                quality.samples, quality.mean_score
            );
            for s in &quality.interfaces {
                eprintln!(
                    "[loadgen]   {:<24} {} samples, score {:.3}, fidelity {:.3}",
                    s.name, s.samples, s.score, s.fidelity
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&wal_dir);

    let bad: usize = report
        .points
        .iter()
        .map(|p| p.unexpected + p.transport_errors)
        .sum();
    let ok: usize = report.points.iter().map(|p| p.status_2xx).sum();
    if bad > 0 {
        eprintln!("[loadgen] FAIL: {bad} responses outside the expected classes");
        std::process::exit(1);
    }
    if ok == 0 {
        eprintln!("[loadgen] FAIL: no successful responses at all");
        std::process::exit(1);
    }
    if !exposition_errors.is_empty() {
        for error in &exposition_errors {
            eprintln!("[loadgen]   exposition: {error}");
        }
        eprintln!(
            "[loadgen] FAIL: /metrics exposition invalid ({} violations)",
            exposition_errors.len()
        );
        std::process::exit(1);
    }
    if !debug_errors.is_empty() {
        for error in &debug_errors {
            eprintln!("[loadgen]   debug: {error}");
        }
        eprintln!(
            "[loadgen] FAIL: /debug endpoints invalid ({} violations)",
            debug_errors.len()
        );
        std::process::exit(1);
    }
    if let Some(recovery) = &report.recovery {
        eprintln!(
            "[loadgen] recovery: snapshot restart identical {}, tail replayed {} records, replay restart identical {}",
            recovery.snapshot_restart_identical,
            recovery.tail_records_replayed,
            recovery.replay_restart_identical,
        );
        if !recovery.snapshot_restart_identical || !recovery.replay_restart_identical {
            eprintln!("[loadgen] FAIL: a restart did not reproduce the served world exactly");
            std::process::exit(1);
        }
        if recovery.tail_records_replayed == 0 {
            eprintln!("[loadgen] FAIL: the replay restart never exercised the WAL tail");
            std::process::exit(1);
        }
    }
    if ingest && !quick {
        let mut slo_failures = 0;
        for p in &report.points {
            if p.latency_ms.p50 > INGEST_READ_P50_BUDGET_MS {
                eprintln!(
                    "[loadgen] FAIL: {} read p50 {:.2}ms exceeds the {:.1}ms budget (2x read-only baseline)",
                    p.name, p.latency_ms.p50, INGEST_READ_P50_BUDGET_MS
                );
                slo_failures += 1;
            }
            match &p.write_latency_ms {
                Some(w) if w.p50 < INGEST_WRITE_P50_BUDGET_MS => {}
                Some(w) => {
                    eprintln!(
                        "[loadgen] FAIL: {} write p50 {:.2}ms exceeds the {:.1}ms budget",
                        p.name, w.p50, INGEST_WRITE_P50_BUDGET_MS
                    );
                    slo_failures += 1;
                }
                None => {
                    eprintln!("[loadgen] FAIL: {} measured no successful writes", p.name);
                    slo_failures += 1;
                }
            }
        }
        if slo_failures > 0 {
            std::process::exit(1);
        }
    }
    eprintln!("[loadgen] OK");
}

/// Drains the server (which compacts its journal on the way out), then
/// proves warm restart twice over: (1) reopen from the compaction
/// snapshot and serve recommendations bit-identical to the live
/// server's final answers; (2) journal fresh writes, drop the world
/// *without* compacting — a crash after the last append — reopen over
/// snapshot + WAL tail, and serve bit-identical to the pre-drop world.
/// The second leg also pits the incremental CSR patch (live world)
/// against a from-scratch rebuild (replayed world): identity requires
/// them to agree.
fn run_recovery_check(
    handle: ServerHandle,
    addr: SocketAddr,
    app_config: &AppConfig,
) -> RecoveryReport {
    use exrec_serve::app::Deadline;
    use exrec_serve::proto::{RateRequest, RecommendRequest};

    let probe = RecommendRequest {
        users: vec![0, 1, 2, 3, 17, 42],
        n: Some(10),
        interface: None,
        explain: None,
        deadline_ms: None,
        inject_panic: None,
        inject_delay_ms: None,
    };
    let probe_body = serde_json::to_string(&probe).expect("serialize probe");
    eprintln!("[loadgen] recovery: capturing live recommendations");
    let live = post_json(addr, "/v1/recommend", &probe_body).expect("live recommend probe");
    eprintln!("[loadgen] recovery: draining (compacts the journal)");
    handle.shutdown();
    let deadline = || Deadline::after_ms(600_000);

    eprintln!("[loadgen] recovery: restarting from the compaction snapshot");
    let app =
        ExplainApp::try_new(app_config.clone(), Telemetry::default()).expect("snapshot restart");
    assert!(
        app.snapshot_loaded(),
        "restart must load the compaction snapshot"
    );
    assert_eq!(
        app.wal_stats().expect("journal open").replayed,
        0,
        "a clean drain leaves no WAL tail"
    );
    let after_snapshot = app
        .recommend(&probe, deadline())
        .expect("recommend on the restarted world");
    let after_snapshot = serde_json::to_value(&after_snapshot);
    let snapshot_restart_identical = after_snapshot == live;

    // Journal a deterministic tail of whole-star upserts, read the
    // world it produced, then drop without compacting.
    for k in 0..16u32 {
        let req = RateRequest {
            user: (k * 977) % app_config.n_users as u32,
            item: (k * 31) % app_config.n_items as u32,
            value: Some(1.0 + (k % 5) as f64),
            deadline_ms: None,
        };
        app.rate(&req, deadline()).expect("journaled tail write");
    }
    let with_tail = app
        .recommend(&probe, deadline())
        .expect("recommend after tail writes");
    let with_tail = serde_json::to_value(&with_tail);
    drop(app);

    eprintln!("[loadgen] recovery: restarting over snapshot + WAL tail");
    let app =
        ExplainApp::try_new(app_config.clone(), Telemetry::default()).expect("replay restart");
    assert!(app.snapshot_loaded(), "snapshot still precedes the tail");
    let tail_records_replayed = app.wal_stats().expect("journal open").replayed;
    let replayed = app
        .recommend(&probe, deadline())
        .expect("recommend on the replayed world");
    let replayed = serde_json::to_value(&replayed);

    RecoveryReport {
        snapshot_restart_identical,
        tail_records_replayed,
        replay_restart_identical: replayed == with_tail,
    }
}
