//! Integration tests for the `/debug/*` introspection surface, the
//! always-on phase profiler and the request flight recorder, over real
//! loopback sockets: gating, profile completeness (phases must account
//! for ≥90% of measured wall time), collapsed-stack export, and flight
//! records surviving the tail sampler's drop decisions.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use exrec_obs::{CountingSubscriber, Subscriber, TailConfig, TailSamplingSubscriber, Telemetry};
use exrec_serve::app::{AppConfig, ExplainApp};
use exrec_serve::proto::{DebugProfileBody, DebugRequestsBody, DebugWorldBody, HealthResponse};
use exrec_serve::server::{self, ServerConfig, ServerHandle};

/// A parsed client-side response.
struct ClientResponse {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl ClientResponse {
    fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A keep-alive test client over one connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn send(&mut self, method: &str, path: &str, extra_headers: &str, body: Option<&str>) {
        let body = body.unwrap_or("");
        let request = format!(
            "{method} {path} HTTP/1.1\r\nhost: test\r\n{extra_headers}content-length: {}\r\n\r\n{body}",
            body.len(),
        );
        self.writer.write_all(request.as_bytes()).expect("send");
    }

    fn read_response(&mut self) -> Option<ClientResponse> {
        let mut status_line = String::new();
        if self.reader.read_line(&mut status_line).ok()? == 0 {
            return None;
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).ok()?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            let (name, value) = line.split_once(':').expect("header");
            let (name, value) = (name.trim().to_ascii_lowercase(), value.trim().to_owned());
            if name == "content-length" {
                content_length = value.parse().expect("content-length");
            }
            headers.push((name, value));
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).ok()?;
        Some(ClientResponse {
            status,
            headers,
            body: String::from_utf8(body).expect("utf-8 body"),
        })
    }

    fn roundtrip(&mut self, method: &str, path: &str, body: Option<&str>) -> ClientResponse {
        self.send(method, path, "", body);
        self.read_response().expect("response")
    }
}

/// One request on a *fresh* connection: the first request on a
/// connection is the one whose wall clock runs from admission, so
/// queue wait and parse time are attributed to its profile.
fn fresh_roundtrip(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> ClientResponse {
    let mut client = Client::connect(addr);
    client.roundtrip(method, path, body)
}

/// Starts a server over a small world with the given edge tuning.
fn start_server_with_telemetry(
    telemetry: Telemetry,
    configure: impl FnOnce(&mut ServerConfig, &mut AppConfig),
) -> ServerHandle {
    let mut server_config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_bound: 16,
        default_deadline_ms: 10_000,
        max_deadline_ms: 30_000,
        idle_timeout_ms: 5_000,
        ..ServerConfig::default()
    };
    let mut app_config = AppConfig {
        n_users: 60,
        n_items: 40,
        density: 0.3,
        ..AppConfig::default()
    };
    configure(&mut server_config, &mut app_config);
    let app = ExplainApp::new(app_config, telemetry.clone());
    server::start(app, server_config, telemetry).expect("start server")
}

fn start_server(configure: impl FnOnce(&mut ServerConfig, &mut AppConfig)) -> ServerHandle {
    start_server_with_telemetry(Telemetry::default(), configure)
}

#[test]
fn debug_endpoints_are_forbidden_unless_enabled() {
    let handle = start_server(|_, _| {}); // debug_endpoints defaults to off
    let mut client = Client::connect(handle.addr());
    for path in ["/debug/profile", "/debug/requests", "/debug/world"] {
        let response = client.roundtrip("GET", path, None);
        assert_eq!(response.status, 403, "{path} must be gated");
        assert!(
            response.body.contains("debug_disabled"),
            "{path}: {}",
            response.body
        );
    }
    // The routes exist even when gated: wrong method is 405, not 404.
    assert_eq!(
        client
            .roundtrip("POST", "/debug/profile", Some("{}"))
            .status,
        405
    );
    handle.shutdown();
}

#[test]
fn profile_accounts_for_ninety_percent_of_wall_time() {
    let handle = start_server(|server, _| server.debug_endpoints = true);
    let addr = handle.addr();

    // Fresh connections: the first request on a connection has queue
    // wait and parse attributed, so its phases can cover the full
    // admission-to-response wall clock.
    for _ in 0..5 {
        let response = fresh_roundtrip(
            addr,
            "POST",
            "/v1/recommend",
            Some(r#"{"users": [0, 1, 2, 3, 4, 5, 6, 7], "n": 5, "explain": true}"#),
        );
        assert_eq!(response.status, 200);
    }

    let response = fresh_roundtrip(addr, "GET", "/debug/requests", None);
    assert_eq!(response.status, 200);
    let body: DebugRequestsBody = serde_json::from_str(&response.body).unwrap();
    let recommends: Vec<_> = body
        .requests
        .iter()
        .filter(|r| r.route == "recommend")
        .collect();
    assert_eq!(recommends.len(), 5, "all five requests recorded");

    for record in recommends {
        assert!(record.duration_ns > 0);
        // Top-level phases (no `;` in the path): queue_wait, parse,
        // handle. Nested phases are *inside* handle, so summing only
        // the top level avoids double counting.
        let accounted: u64 = record
            .phases
            .iter()
            .filter(|(path, _)| !path.contains(';'))
            .map(|(_, ns)| ns)
            .sum();
        let coverage = accounted as f64 / record.duration_ns as f64;
        assert!(
            coverage >= 0.90,
            "phases cover {:.1}% of {} ns (trace {}): {:?}",
            coverage * 100.0,
            record.duration_ns,
            record.trace_id,
            record.phases,
        );
        // The nested hot path showed up under handle.
        assert!(
            record.phases.iter().any(|(p, _)| p.starts_with("handle;")),
            "handle has sub-phases: {:?}",
            record.phases
        );
    }
    handle.shutdown();
}

#[test]
fn debug_profile_exports_route_tree_and_collapsed_stacks() {
    let handle = start_server(|server, _| server.debug_endpoints = true);
    let addr = handle.addr();
    let mut client = Client::connect(addr);
    for _ in 0..3 {
        let response = client.roundtrip(
            "POST",
            "/v1/recommend",
            Some(r#"{"users": [0, 1], "n": 3, "explain": true}"#),
        );
        assert_eq!(response.status, 200);
    }

    // JSON shape: hierarchical per-route tree with self-time.
    let response = client.roundtrip("GET", "/debug/profile", None);
    assert_eq!(response.status, 200);
    assert!(response
        .header("content-type")
        .is_some_and(|ct| ct.starts_with("application/json")));
    let profile: DebugProfileBody = serde_json::from_str(&response.body).unwrap();
    let recommend = profile
        .routes
        .iter()
        .find(|r| r.name == "recommend")
        .expect("recommend route profiled");
    assert_eq!(recommend.calls, 3);
    assert!(recommend.total_ns > 0);
    let handle_phase = recommend
        .children
        .iter()
        .find(|c| c.name == "handle")
        .expect("handle phase under recommend");
    assert!(
        handle_phase.children.iter().any(|c| c.name == "scan"),
        "similarity scan profiled under handle: {:?}",
        handle_phase
            .children
            .iter()
            .map(|c| &c.name)
            .collect::<Vec<_>>()
    );
    // Self time never exceeds total time, at every level.
    fn check(node: &exrec_obs::PhaseSnapshot) {
        assert!(node.self_ns <= node.total_ns, "{}: self > total", node.name);
        node.children.iter().for_each(check);
    }
    profile.routes.iter().for_each(check);

    // Collapsed-stack export: `route;phase;subphase self_ns` per line.
    let mut client = Client::connect(addr);
    client.send("GET", "/debug/profile", "accept: text/plain\r\n", None);
    let response = client.read_response().expect("collapsed response");
    assert_eq!(response.status, 200);
    assert!(response
        .header("content-type")
        .is_some_and(|ct| ct.starts_with("text/plain")));
    let lines: Vec<&str> = response.body.lines().filter(|l| !l.is_empty()).collect();
    assert!(!lines.is_empty(), "collapsed output has frames");
    for line in &lines {
        let (stack, value) = line.rsplit_once(' ').expect("`stack value` shape");
        assert!(!stack.is_empty());
        value
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("numeric self-ns in {line:?}"));
    }
    assert!(
        lines.iter().any(|l| l.starts_with("recommend;")),
        "recommend frames present: {lines:?}"
    );
    handle.shutdown();
}

#[test]
fn flight_records_survive_tail_sampler_drop() {
    // A tail sampler that drops everything: nothing is slow enough to
    // flush and head sampling is off. The flight recorder must retain
    // the requests anyway — that is its reason to exist.
    let sink = Arc::new(CountingSubscriber::new());
    let tail = TailSamplingSubscriber::new(
        Arc::clone(&sink) as Arc<dyn Subscriber>,
        TailConfig {
            slow_threshold_ns: u64::MAX,
            head_sample_every: 0,
            ..TailConfig::default()
        },
    );
    let telemetry = Telemetry::with_subscriber(Arc::new(tail));
    let handle = start_server_with_telemetry(telemetry, |server, _| server.debug_endpoints = true);
    let addr = handle.addr();

    let mut client = Client::connect(addr);
    for _ in 0..4 {
        let response = client.roundtrip("POST", "/v1/recommend", Some(r#"{"users": [0], "n": 2}"#));
        assert_eq!(response.status, 200);
    }

    // The sampler dropped every trace…
    assert!(
        sink.events().is_empty(),
        "fast clean traces should have been dropped by the tail sampler"
    );
    // …but the flight recorder kept every request, untorn.
    let response = client.roundtrip("GET", "/debug/requests", None);
    assert_eq!(response.status, 200);
    let body: DebugRequestsBody = serde_json::from_str(&response.body).unwrap();
    let recommends: Vec<_> = body
        .requests
        .iter()
        .filter(|r| r.route == "recommend")
        .collect();
    assert_eq!(recommends.len(), 4);
    for record in recommends {
        assert_eq!(record.status, 200);
        assert_eq!(record.outcome, "ok");
        assert!(!record.trace_id.is_empty(), "trace id retained after drop");
        assert!(record.duration_ns > 0);
    }
    // The in-process view agrees with the HTTP view.
    assert!(handle.flight().recorded() >= 4);
    handle.shutdown();
}

#[test]
fn debug_world_and_healthz_expose_world_shape() {
    let handle = start_server(|server, _| server.debug_endpoints = true);
    let mut client = Client::connect(handle.addr());

    // Drive traffic so the scan engine's counters move.
    for _ in 0..2 {
        let response = client.roundtrip(
            "POST",
            "/v1/recommend",
            Some(r#"{"users": [0, 1, 2], "n": 3}"#),
        );
        assert_eq!(response.status, 200);
    }

    let response = client.roundtrip("GET", "/debug/world", None);
    assert_eq!(response.status, 200);
    let raw: serde_json::Value = serde_json::from_str(&response.body).unwrap();
    assert!(
        raw.get("cache").is_none(),
        "no cache block: {}",
        response.body
    );
    let world: DebugWorldBody = serde_json::from_str(&response.body).unwrap();
    assert_eq!(world.users, 60);
    assert_eq!(world.items, 40);
    assert!(world.ratings > 0);
    assert_eq!(world.model, "user-knn");
    assert_eq!(world.workers, 2);
    assert_eq!(world.queue_capacity, 16);
    assert!(world.pool_threads > 0);
    let scan = world.scan.expect("scan engine attached");
    assert_eq!(scan.mode, "pruned");
    assert!(scan.csr_builds >= 1, "traffic built the CSR snapshot");
    assert!(scan.tile_users.is_some(), "autotuner picked a tile");
    // A 60-user world is far below the pruned fallback floor, so every
    // scan ran exact — and says so.
    assert!(scan.exact_scans > 0, "traffic moved the scan engine");
    assert!(scan.exact_fallbacks > 0, "tiny world falls back to exact");
    assert_eq!(scan.pruned_scans, 0);
    assert!((0.0..=1.0).contains(&scan.prune_ratio));

    // /healthz (not debug-gated) carries no cache block either.
    let response = client.roundtrip("GET", "/healthz", None);
    assert_eq!(response.status, 200);
    let raw: serde_json::Value = serde_json::from_str(&response.body).unwrap();
    assert!(
        raw.get("cache").is_none(),
        "no cache block: {}",
        response.body
    );
    let health: HealthResponse = serde_json::from_str(&response.body).unwrap();
    assert_eq!(health.workers, 2);
    handle.shutdown();
}
