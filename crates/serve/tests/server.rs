//! Integration tests for the serving edge, over real loopback sockets:
//! every endpoint, load-shedding, deadlines, panic isolation, graceful
//! drain and hostile bodies — the acceptance behaviours of the
//! subsystem.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use exrec_obs::Telemetry;
use exrec_serve::app::{AppConfig, ExplainApp};
use exrec_serve::proto::{ExplainResponse, HealthResponse, RecommendResponse};
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

    fn send(&mut self, method: &str, path: &str, body: Option<&str>) {
        let body = body.unwrap_or("");
        let request = format!(
            "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{body}",
            body.len(),
        );
        self.writer.write_all(request.as_bytes()).expect("send");
    }

    /// Reads one response; `None` when the server closed the connection.
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
        self.send(method, path, body);
        self.read_response().expect("response")
    }
}

/// Starts a server over a small world with the given edge tuning.
fn start_server(configure: impl FnOnce(&mut ServerConfig, &mut AppConfig)) -> ServerHandle {
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
    let telemetry = Telemetry::default();
    let app = ExplainApp::new(app_config, telemetry.clone());
    server::start(app, server_config, telemetry).expect("start server")
}

#[test]
fn all_four_endpoints_answer_on_loopback() {
    let handle = start_server(|_, _| {});
    let mut client = Client::connect(handle.addr());

    // GET /healthz
    let health = client.roundtrip("GET", "/healthz", None);
    assert_eq!(health.status, 200);
    let health: HealthResponse = serde_json::from_str(&health.body).unwrap();
    assert_eq!(health.status, "ok");
    assert_eq!(health.workers, 2);
    assert_eq!(health.queue_capacity, 16);

    // POST /v1/recommend — content checked, not just status.
    let response = client.roundtrip(
        "POST",
        "/v1/recommend",
        Some(r#"{"users": [0, 1, 2], "n": 3, "explain": true}"#),
    );
    assert_eq!(response.status, 200);
    let recs: RecommendResponse = serde_json::from_str(&response.body).unwrap();
    assert_eq!(recs.results.len(), 3);
    for (idx, per_user) in recs.results.iter().enumerate() {
        assert_eq!(per_user.user, idx as u32);
        assert!(per_user.items.len() <= 3);
        for item in &per_user.items {
            assert!((item.item as usize) < 40, "item id in catalog");
            assert!(item.confidence >= 0.0 && item.confidence <= 1.0);
            let explanation = item.explanation.as_ref().expect("explain=true");
            assert_eq!(explanation.interface, "clustered_histogram");
            assert!(!explanation.text.is_empty());
        }
    }

    // POST /v1/explain
    let response = client.roundtrip(
        "POST",
        "/v1/explain",
        Some(r#"{"user": 0, "item": 1, "interface": "item_average"}"#),
    );
    assert_eq!(response.status, 200);
    let explain: ExplainResponse = serde_json::from_str(&response.body).unwrap();
    assert_eq!((explain.user, explain.item), (0, 1));
    assert_eq!(explain.explanation.interface, "item_average");
    assert!(!explain.explanation.aims.is_empty());

    // GET /metrics — reflects the traffic above.
    let metrics = client.roundtrip("GET", "/metrics", None);
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("serve.requests"));
    assert!(metrics.body.contains("serve.latency_ns.recommend"));
    assert!(metrics.body.contains("serve.aims."));

    // Routing errors.
    assert_eq!(client.roundtrip("GET", "/nope", None).status, 404);
    assert_eq!(client.roundtrip("GET", "/v1/recommend", None).status, 405);
    assert_eq!(
        client
            .roundtrip("POST", "/v1/recommend", Some("{not json"))
            .status,
        400
    );
    assert_eq!(
        client
            .roundtrip("POST", "/v1/recommend", Some(r#"{"users": [9999]}"#))
            .status,
        404
    );

    handle.shutdown();
}

#[test]
fn full_queue_sheds_with_429_and_retry_after() {
    let handle = start_server(|server, app| {
        server.workers = 1;
        server.queue_bound = 1;
        app.fault_injection = true;
    });

    // A occupies the single worker for a while.
    let mut a = Client::connect(handle.addr());
    a.send(
        "POST",
        "/v1/recommend",
        Some(r#"{"users": [0], "inject_delay_ms": 600, "deadline_ms": 10000}"#),
    );
    std::thread::sleep(Duration::from_millis(150));

    // B fills the queue's only slot.
    let mut b = Client::connect(handle.addr());
    b.send("POST", "/v1/recommend", Some(r#"{"users": [1], "n": 2}"#));
    std::thread::sleep(Duration::from_millis(150));

    // C finds the queue full and is shed at the door.
    let mut c = Client::connect(handle.addr());
    let shed = c.read_response().expect("shed response");
    assert_eq!(shed.status, 429);
    assert_eq!(shed.header("retry-after"), Some("1"));
    assert!(shed.body.contains("shed"));

    // The shed didn't corrupt admitted work: A and B complete correctly.
    let a_response = a.read_response().expect("a response");
    assert_eq!(a_response.status, 200);
    let recs: RecommendResponse = serde_json::from_str(&a_response.body).unwrap();
    assert_eq!(recs.results[0].user, 0);
    let b_response = b.read_response().expect("b response");
    assert_eq!(b_response.status, 200);
    let recs: RecommendResponse = serde_json::from_str(&b_response.body).unwrap();
    assert_eq!(recs.results[0].user, 1);

    let report = handle.telemetry().report();
    assert_eq!(report.counters["serve.shed"], 1);
    handle.shutdown();
}

#[test]
fn spent_deadline_yields_504() {
    let handle = start_server(|_, app| app.fault_injection = true);
    let mut client = Client::connect(handle.addr());

    // The handler's delay overruns the request's own deadline.
    let response = client.roundtrip(
        "POST",
        "/v1/recommend",
        Some(r#"{"users": [0], "inject_delay_ms": 500, "deadline_ms": 40}"#),
    );
    assert_eq!(response.status, 504);
    assert!(response.body.contains("deadline_exceeded"));

    // A zero budget is rejected before any work happens.
    let response = client.roundtrip(
        "POST",
        "/v1/explain",
        Some(r#"{"user": 0, "item": 1, "deadline_ms": 0}"#),
    );
    assert_eq!(response.status, 504);

    // The server still answers fresh, in-budget requests.
    let response = client.roundtrip("POST", "/v1/explain", Some(r#"{"user": 0, "item": 1}"#));
    assert_eq!(response.status, 200);

    let report = handle.telemetry().report();
    assert!(report.counters["serve.timeout"] >= 2);
    handle.shutdown();
}

#[test]
fn handler_panic_costs_one_request_not_the_pool() {
    // A single worker: if the panic killed it, nothing would answer.
    let handle = start_server(|server, app| {
        server.workers = 1;
        app.fault_injection = true;
    });
    let mut client = Client::connect(handle.addr());

    let response = client.roundtrip(
        "POST",
        "/v1/recommend",
        Some(r#"{"users": [0], "inject_panic": true}"#),
    );
    assert_eq!(response.status, 500);
    assert!(response.body.contains("panic"));

    // Same connection still serves…
    let response = client.roundtrip("POST", "/v1/recommend", Some(r#"{"users": [0], "n": 2}"#));
    assert_eq!(response.status, 200);

    // …and so does a fresh one through the same (sole) worker.
    let mut fresh = Client::connect(handle.addr());
    let response = fresh.roundtrip("POST", "/v1/explain", Some(r#"{"user": 1, "item": 2}"#));
    assert!(response.status == 200 || response.status == 422);

    assert_eq!(handle.telemetry().report().counters["serve.panic"], 1);
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let handle = start_server(|server, app| {
        server.workers = 1;
        app.fault_injection = true;
    });
    let addr = handle.addr();

    // A long-running request is in flight when shutdown begins.
    let mut client = Client::connect(addr);
    client.send(
        "POST",
        "/v1/recommend",
        Some(r#"{"users": [0], "inject_delay_ms": 400, "deadline_ms": 10000}"#),
    );
    std::thread::sleep(Duration::from_millis(100));

    let drainer = std::thread::spawn(move || handle.shutdown());

    // The in-flight request completes with a full, correct response…
    let response = client.read_response().expect("drained response");
    assert_eq!(response.status, 200);
    let recs: RecommendResponse = serde_json::from_str(&response.body).unwrap();
    assert_eq!(recs.results[0].user, 0);
    // …and the server marked the connection for close while draining.
    assert_eq!(response.header("connection"), Some("close"));

    drainer.join().expect("shutdown completes");

    // The listener is closed: new connections are refused (or reset
    // before a response arrives on slow loopbacks).
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(stream) => {
            stream
                .set_read_timeout(Some(Duration::from_millis(500)))
                .unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            assert_eq!(
                reader.read_line(&mut line).unwrap_or(0),
                0,
                "post-shutdown connection must not be served, got {line:?}"
            );
        }
    }
}

#[test]
fn idle_keepalive_connections_are_reaped() {
    let handle = start_server(|server, _| server.idle_timeout_ms = 150);
    let mut client = Client::connect(handle.addr());
    assert_eq!(client.roundtrip("GET", "/healthz", None).status, 200);

    // Sit idle past the reap timeout; the server closes the connection.
    std::thread::sleep(Duration::from_millis(450));
    client.send("GET", "/healthz", None);
    assert!(
        client.read_response().is_none(),
        "idle connection should have been reaped"
    );

    let report = handle.telemetry().report();
    assert!(report.counters["serve.idle_reaped"] >= 1);
    handle.shutdown();
}

#[test]
fn deeply_nested_json_is_a_400_not_a_crash() {
    let handle = start_server(|_, _| {});
    let mut client = Client::connect(handle.addr());

    // 20 KB of `[`: far under the body cap, and deep enough to overflow
    // a worker's stack in a parser without a nesting limit.
    let body = "[".repeat(20_000);
    let response = client.roundtrip("POST", "/v1/recommend", Some(&body));
    assert_eq!(response.status, 400);
    assert!(response.body.contains("bad_request"));

    // The process survived: a fresh connection still gets answers.
    let mut fresh = Client::connect(handle.addr());
    assert_eq!(fresh.roundtrip("GET", "/healthz", None).status, 200);
    handle.shutdown();
}

#[test]
fn ambiguous_body_framing_is_a_400_and_a_close() {
    let handle = start_server(|_, _| {});
    // Each payload hides a `GET /healthz` where a parser that ignored
    // `Transfer-Encoding`, or took the first of two `Content-Length`s,
    // would read it as a second, smuggled request.
    let payloads = [
        "POST /v1/recommend HTTP/1.1\r\nhost: test\r\ntransfer-encoding: chunked\r\n\r\n\
         GET /healthz HTTP/1.1\r\nhost: test\r\n\r\n",
        "POST /v1/recommend HTTP/1.1\r\nhost: test\r\ncontent-length: 2\r\n\
         content-length: 40\r\n\r\n{}GET /healthz HTTP/1.1\r\nhost: test\r\n\r\n",
    ];
    for payload in payloads {
        let mut client = Client::connect(handle.addr());
        client.writer.write_all(payload.as_bytes()).expect("send");
        let response = client.read_response().expect("one response");
        assert_eq!(response.status, 400, "{payload:?}");
        assert!(response.body.contains("bad_request"));
        assert_eq!(response.header("connection"), Some("close"));
        assert!(
            client.read_response().is_none(),
            "the hidden request must not be answered: {payload:?}"
        );
    }

    let mut fresh = Client::connect(handle.addr());
    assert_eq!(fresh.roundtrip("GET", "/healthz", None).status, 200);
    handle.shutdown();
}
