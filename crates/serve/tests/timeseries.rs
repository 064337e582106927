//! Integration tests for the continuous-telemetry surface over real
//! loopback sockets: the cooperative time-series sampler retaining
//! windowed per-interval digests, the anomaly watchdog latching exactly
//! one incident for an induced regression, and the build/incident
//! blocks folded into `/healthz` and `/debug/world`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use exrec_obs::{Telemetry, TsSnapshot};
use exrec_serve::app::{AppConfig, ExplainApp};
use exrec_serve::proto::{DebugIncidentsBody, DebugWorldBody, HealthResponse};
use exrec_serve::server::{self, ServerConfig, ServerHandle};

/// A parsed client-side response.
struct ClientResponse {
    status: u16,
    body: String,
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

    fn roundtrip(&mut self, method: &str, path: &str, body: Option<&str>) -> ClientResponse {
        let body = body.unwrap_or("");
        let request = format!(
            "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{body}",
            body.len(),
        );
        self.writer.write_all(request.as_bytes()).expect("send");
        let mut status_line = String::new();
        self.reader.read_line(&mut status_line).expect("status");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("header");
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().expect("content-length");
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).expect("body");
        ClientResponse {
            status,
            body: String::from_utf8(body).expect("utf-8 body"),
        }
    }
}

/// Starts a server over a small world with a fast sampler tick and the
/// debug surface on.
fn start_server(configure: impl FnOnce(&mut ServerConfig, &mut AppConfig)) -> ServerHandle {
    let mut server_config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_bound: 32,
        default_deadline_ms: 10_000,
        max_deadline_ms: 30_000,
        idle_timeout_ms: 5_000,
        debug_endpoints: true,
        ..ServerConfig::default()
    };
    server_config.ts.interval_ns = 25_000_000; // 25ms ticks
    server_config.ts.retention = 256;
    let mut app_config = AppConfig {
        n_users: 60,
        n_items: 40,
        density: 0.3,
        ..AppConfig::default()
    };
    configure(&mut server_config, &mut app_config);
    let app = ExplainApp::new(app_config, Telemetry::default());
    server::start(app, server_config, Telemetry::default()).expect("start server")
}

/// Neuters every watchdog rule that ambient test traffic could trip,
/// so a test can arm exactly the rule it intends to regress.
fn disarm_watchdog(server: &mut ServerConfig) {
    server.watch.latency_zscore = 1e12;
    server.watch.error_rate_max = f64::INFINITY;
    server.watch.shed_rate_max = f64::INFINITY;
    server.watch.quality_min = -1.0;
    server.watch.revision_lag_max = f64::INFINITY;
    server.watch.prune_ratio_min = -1.0;
    // The SLO external path never arms with a zero target.
    server.slo.target = 0.0;
}

#[test]
fn sampler_retains_windowed_digests_under_steady_traffic() {
    let handle = start_server(|server, app| {
        disarm_watchdog(server);
        app.quality_sample_every = 0;
    });
    let mut client = Client::connect(handle.addr());

    // ~1.2s of steady traffic across ≥40 25ms tick windows; every
    // request drives the cooperative sampler from `record()`.
    let deadline = Instant::now() + Duration::from_millis(1_200);
    let mut requests = 0u64;
    while Instant::now() < deadline {
        let response = client.roundtrip("POST", "/v1/recommend", Some(r#"{"users": [3], "n": 4}"#));
        assert_eq!(response.status, 200);
        requests += 1;
        std::thread::sleep(Duration::from_millis(2));
    }

    let snap: TsSnapshot = {
        let response = client.roundtrip("GET", "/debug/timeseries", None);
        assert_eq!(response.status, 200);
        serde_json::from_str(&response.body).expect("timeseries body")
    };
    assert!(snap.ticks >= 30, "only {} ticks in 1.2s", snap.ticks);
    assert_eq!(snap.interval_ns, 25_000_000);

    // Tracked families each retain ≥30 per-interval samples.
    let accepted = &snap.counters["serve.accepted"];
    assert!(accepted.len() >= 30, "{} rate points", accepted.len());
    let latency = &snap.histograms["serve.latency_ns.recommend"];
    assert!(latency.len() >= 30, "{} latency points", latency.len());

    // Windowed, not cumulative: per-interval counts must be fractions
    // of the total, quantiles ordered, and deltas conserve the total.
    let mut windowed_total = 0u64;
    for point in latency {
        assert!(point.count < requests, "cumulative leak: {point:?}");
        assert!(point.p50_ns <= point.p95_ns && point.p95_ns <= point.p99_ns);
        windowed_total += point.count;
    }
    assert!(windowed_total > 0 && windowed_total <= requests);
    assert!(latency.iter().any(|p| p.count > 0));
    let accepted_total: u64 = accepted.iter().map(|p| p.delta).sum();
    assert!(accepted_total <= requests + 8); // + debug/health requests
    for pair in accepted.windows(2) {
        assert!(pair[0].epoch < pair[1].epoch, "epochs must increase");
    }

    handle.shutdown();
}

#[test]
fn induced_error_burst_latches_exactly_one_incident() {
    let handle = start_server(|server, app| {
        disarm_watchdog(server);
        app.fault_injection = true;
        app.quality_sample_every = 0;
        // Re-arm only the 5xx-rate rule; an effectively-infinite clear
        // threshold keeps the incident latched for the assertions.
        server.watch.error_rate_max = 0.5;
        server.watch.trip_after = 2;
        server.watch.clear_after = 1_000_000;
    });
    let mut client = Client::connect(handle.addr());

    // Warm up with clean traffic over a few ticks.
    for _ in 0..20 {
        let response = client.roundtrip("POST", "/v1/recommend", Some(r#"{"users": [1], "n": 2}"#));
        assert_eq!(response.status, 200);
        std::thread::sleep(Duration::from_millis(3));
    }

    // The regression: a panic burst spanning several 25ms tick windows.
    let burst_start_ns = exrec_obs::trace::process_offset_ns();
    let burst_deadline = Instant::now() + Duration::from_millis(300);
    while Instant::now() < burst_deadline {
        let response = client.roundtrip(
            "POST",
            "/v1/recommend",
            Some(r#"{"users": [1], "inject_panic": true}"#),
        );
        assert_eq!(response.status, 500);
        std::thread::sleep(Duration::from_millis(3));
    }
    let burst_end_ns = exrec_obs::trace::process_offset_ns();

    // Clean traffic afterwards: the latch must hold (clear_after is
    // effectively infinite), and no second incident may open.
    for _ in 0..30 {
        let response = client.roundtrip("POST", "/v1/recommend", Some(r#"{"users": [1], "n": 2}"#));
        assert_eq!(response.status, 200);
        std::thread::sleep(Duration::from_millis(3));
    }

    let incidents: DebugIncidentsBody = {
        let response = client.roundtrip("GET", "/debug/incidents", None);
        assert_eq!(response.status, 200);
        serde_json::from_str(&response.body).expect("incidents body")
    };
    assert_eq!(incidents.opened, 1, "{:?}", incidents.incidents);
    assert_eq!(incidents.active, 1);
    assert_eq!(incidents.flight_dumps, 1, "flight dump must fire once");
    let incident = &incidents.incidents[0];
    assert_eq!(incident.rule, "error_rate");
    assert_eq!(incident.kind, "above");
    assert!(incident.closed_epoch.is_none(), "latch must hold");
    assert!(
        incident.opened_offset_ns >= burst_start_ns && incident.opened_offset_ns <= burst_end_ns,
        "incident at t+{}ns outside burst [{burst_start_ns}, {burst_end_ns}]",
        incident.opened_offset_ns
    );

    // The standing incident degrades /healthz.
    let health: HealthResponse = {
        let response = client.roundtrip("GET", "/healthz", None);
        serde_json::from_str(&response.body).expect("health body")
    };
    assert_eq!(health.status, "degraded");
    let standing = health.incidents.expect("incident standing");
    assert_eq!(standing.active, 1);
    assert_eq!(standing.flight_dumps, 1);
    assert_eq!(standing.last_rule.as_deref(), Some("error_rate"));

    handle.shutdown();
}

#[test]
fn build_info_reports_schemas_in_health_and_world() {
    let handle = start_server(|server, app| {
        disarm_watchdog(server);
        app.quality_sample_every = 0;
    });
    let mut client = Client::connect(handle.addr());

    let health: HealthResponse = {
        let response = client.roundtrip("GET", "/healthz", None);
        assert_eq!(response.status, 200);
        serde_json::from_str(&response.body).expect("health body")
    };
    let build = health.build.expect("build info in /healthz");
    assert!(!build.git_rev.is_empty());
    assert!(build.world.contains('x'), "world {:?}", build.world);
    assert_eq!(build.flight_schema, exrec_obs::flight::RECORD_SCHEMA);
    assert_eq!(build.ts_schema, exrec_obs::timeseries::TS_SCHEMA);
    assert_eq!(build.watch_schema, exrec_obs::watch::WATCH_SCHEMA);

    let world: DebugWorldBody = {
        let response = client.roundtrip("GET", "/debug/world", None);
        assert_eq!(response.status, 200);
        serde_json::from_str(&response.body).expect("world body")
    };
    let world_build = world.build.expect("build info in /debug/world");
    assert_eq!(world_build.git_rev, build.git_rev);
    assert_eq!(world_build.threads, 2);

    handle.shutdown();
}
