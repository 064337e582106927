//! Integration tests for the serving edge, over real loopback sockets:
//! every endpoint, load-shedding, deadlines, panic isolation, graceful
//! drain and hostile bodies — the acceptance behaviours of the
//! subsystem.

mod common;

use std::io::{self, ErrorKind};
use std::time::Duration;

use exrec_obs::Telemetry;
use exrec_serve::app::AppConfig;
use exrec_serve::client::{Connection, Response};
use exrec_serve::proto::{ExplainResponse, HealthResponse, RecommendResponse};
use exrec_serve::server::{ServerConfig, ServerHandle};

fn start_server(configure: impl FnOnce(&mut ServerConfig, &mut AppConfig)) -> ServerHandle {
    common::start_server(Telemetry::default(), configure)
}

/// Asserts that a read saw the server hang up: a close or a reset, or
/// one of the `also` kinds. A response, or bytes that are not one,
/// fails the test.
#[track_caller]
fn assert_hung_up(read: io::Result<Response>, also: &[ErrorKind], context: &str) {
    match read {
        Err(e)
            if matches!(
                e.kind(),
                ErrorKind::UnexpectedEof | ErrorKind::ConnectionReset
            ) || also.contains(&e.kind()) => {}
        other => panic!("{context}: wanted a hang-up, got {other:?}"),
    }
}

#[test]
fn all_four_endpoints_answer_on_loopback() {
    let handle = start_server(|_, _| {});
    let mut client = Connection::open(handle.addr()).unwrap();

    // GET /healthz
    let health = client.roundtrip("GET", "/healthz", "").unwrap();
    assert_eq!(health.status, 200);
    let health: HealthResponse = serde_json::from_str(&health.body).unwrap();
    assert_eq!(health.status, "ok");
    assert_eq!(health.workers, 2);
    assert_eq!(health.queue_capacity, 16);

    // POST /v1/recommend — content checked, not just status.
    let response = client
        .roundtrip(
            "POST",
            "/v1/recommend",
            r#"{"users": [0, 1, 2], "n": 3, "explain": true}"#,
        )
        .unwrap();
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
    let response = client
        .roundtrip(
            "POST",
            "/v1/explain",
            r#"{"user": 0, "item": 1, "interface": "item_average"}"#,
        )
        .unwrap();
    assert_eq!(response.status, 200);
    let explain: ExplainResponse = serde_json::from_str(&response.body).unwrap();
    assert_eq!((explain.user, explain.item), (0, 1));
    assert_eq!(explain.explanation.interface, "item_average");
    assert!(!explain.explanation.aims.is_empty());

    // GET /metrics — reflects the traffic above.
    let metrics = client.roundtrip("GET", "/metrics", "").unwrap();
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("serve.requests"));
    assert!(metrics.body.contains("serve.latency_ns.recommend"));
    assert!(metrics.body.contains("serve.aims."));

    // Routing errors.
    assert_eq!(client.roundtrip("GET", "/nope", "").unwrap().status, 404);
    assert_eq!(
        client.roundtrip("GET", "/v1/recommend", "").unwrap().status,
        405
    );
    assert_eq!(
        client
            .roundtrip("POST", "/v1/recommend", "{not json")
            .unwrap()
            .status,
        400
    );
    assert_eq!(
        client
            .roundtrip("POST", "/v1/recommend", r#"{"users": [9999]}"#)
            .unwrap()
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
    let mut a = Connection::open(handle.addr()).unwrap();
    a.send(
        "POST",
        "/v1/recommend",
        &[],
        r#"{"users": [0], "inject_delay_ms": 600, "deadline_ms": 10000}"#,
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(150));

    // B fills the queue's only slot.
    let mut b = Connection::open(handle.addr()).unwrap();
    b.send("POST", "/v1/recommend", &[], r#"{"users": [1], "n": 2}"#)
        .unwrap();
    std::thread::sleep(Duration::from_millis(150));

    // C finds the queue full and is shed at the door.
    let mut c = Connection::open(handle.addr()).unwrap();
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
    let mut client = Connection::open(handle.addr()).unwrap();

    // The handler's delay overruns the request's own deadline.
    let response = client
        .roundtrip(
            "POST",
            "/v1/recommend",
            r#"{"users": [0], "inject_delay_ms": 500, "deadline_ms": 40}"#,
        )
        .unwrap();
    assert_eq!(response.status, 504);
    assert!(response.body.contains("deadline_exceeded"));

    // A zero budget is rejected before any work happens.
    let response = client
        .roundtrip(
            "POST",
            "/v1/explain",
            r#"{"user": 0, "item": 1, "deadline_ms": 0}"#,
        )
        .unwrap();
    assert_eq!(response.status, 504);

    // The server still answers fresh, in-budget requests.
    let response = client
        .roundtrip("POST", "/v1/explain", r#"{"user": 0, "item": 1}"#)
        .unwrap();
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
    let mut client = Connection::open(handle.addr()).unwrap();

    let response = client
        .roundtrip(
            "POST",
            "/v1/recommend",
            r#"{"users": [0], "inject_panic": true}"#,
        )
        .unwrap();
    assert_eq!(response.status, 500);
    assert!(response.body.contains("panic"));

    // Same connection still serves…
    let response = client
        .roundtrip("POST", "/v1/recommend", r#"{"users": [0], "n": 2}"#)
        .unwrap();
    assert_eq!(response.status, 200);

    // …and so does a fresh one through the same (sole) worker.
    let mut fresh = Connection::open(handle.addr()).unwrap();
    let response = fresh
        .roundtrip("POST", "/v1/explain", r#"{"user": 1, "item": 2}"#)
        .unwrap();
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
    let mut client = Connection::open(addr).unwrap();
    client
        .send(
            "POST",
            "/v1/recommend",
            &[],
            r#"{"users": [0], "inject_delay_ms": 400, "deadline_ms": 10000}"#,
        )
        .unwrap();
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
    if let Ok(mut conn) = Connection::open(addr) {
        conn.stream()
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        // A read timeout means the connection sat unserved too.
        assert_hung_up(
            conn.read_response(),
            &[ErrorKind::WouldBlock, ErrorKind::TimedOut],
            "post-shutdown connection must not be served",
        );
    }
}

#[test]
fn idle_keepalive_connections_are_reaped() {
    let handle = start_server(|server, _| server.idle_timeout_ms = 150);
    let mut client = Connection::open(handle.addr()).unwrap();
    assert_eq!(client.roundtrip("GET", "/healthz", "").unwrap().status, 200);

    // Sit idle past the reap timeout; the server closes the connection.
    std::thread::sleep(Duration::from_millis(450));
    client.send("GET", "/healthz", &[], "").unwrap();
    assert_hung_up(
        client.read_response(),
        &[],
        "idle connection should have been reaped",
    );

    let report = handle.telemetry().report();
    assert!(report.counters["serve.idle_reaped"] >= 1);
    handle.shutdown();
}

#[test]
fn deeply_nested_json_is_a_400_not_a_crash() {
    let handle = start_server(|_, _| {});
    let mut client = Connection::open(handle.addr()).unwrap();

    // 20 KB of `[`: far under the body cap, and deep enough to overflow
    // a worker's stack in a parser without a nesting limit.
    let body = "[".repeat(20_000);
    let response = client.roundtrip("POST", "/v1/recommend", &body).unwrap();
    assert_eq!(response.status, 400);
    assert!(response.body.contains("bad_request"));

    // The process survived: a fresh connection still gets answers.
    let mut fresh = Connection::open(handle.addr()).unwrap();
    assert_eq!(fresh.roundtrip("GET", "/healthz", "").unwrap().status, 200);
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
        let mut client = Connection::open(handle.addr()).unwrap();
        client.send_raw(payload.as_bytes()).unwrap();
        let response = client.read_response().expect("one response");
        assert_eq!(response.status, 400, "{payload:?}");
        assert!(response.body.contains("bad_request"));
        assert_eq!(response.header("connection"), Some("close"));
        assert_hung_up(
            client.read_response(),
            &[],
            &format!("the hidden request must not be answered: {payload:?}"),
        );
    }

    let mut fresh = Connection::open(handle.addr()).unwrap();
    assert_eq!(fresh.roundtrip("GET", "/healthz", "").unwrap().status, 200);
    handle.shutdown();
}
