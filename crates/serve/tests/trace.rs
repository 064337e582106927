//! Request-record and SLO integration tests over real loopback sockets.
//!
//! * A request bad by the SLO has its flight record written to stderr
//!   (counted in `trace.flushed`); the record in `/debug/requests`
//!   carries the response's `x-exrec-trace-id`, and its phases cover
//!   the edge, the batch pool's workers and the explainer.
//! * A fast request under the objective logs nothing while the `slo.*`
//!   window gauges still advance on the next sampler tick.
//! * `/healthz` exposes backpressure (queue/worker saturation) and the
//!   per-route SLO standing, turning `degraded` while a route's
//!   fast-burn rule stands and `ok` again once it clears.

mod common;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use exrec_obs::{RequestRecord, Telemetry};
use exrec_serve::client::{self, Connection};
use exrec_serve::proto::{DebugRequestsBody, HealthResponse};
use exrec_serve::server::{ServerConfig, ServerHandle};

/// Starts a server with seeded trace ids and a two-thread batch pool,
/// returning it with its telemetry.
fn start_traced(configure: impl FnOnce(&mut ServerConfig)) -> (ServerHandle, Telemetry) {
    let telemetry = Telemetry::default();
    let handle = common::start_server(telemetry.clone(), |server, app| {
        server.trace_seed = Some(42);
        app.pool_threads = 2;
        configure(server);
    });
    (handle, telemetry)
}

/// Sends `body` to `path` on a fresh connection and returns the
/// response's trace id, checking that exactly one record was logged.
fn logged_request(handle: &ServerHandle, path: &str, body: &str) -> String {
    let flushed = handle.telemetry().metrics().counter("trace.flushed");
    let before = flushed.get();
    let response = client::request(handle.addr(), "POST", path, &[], body).unwrap();
    assert_eq!(response.status, 200, "body: {}", response.body);
    assert_eq!(flushed.get(), before + 1, "{path} logged its record");
    let trace_hex = response
        .header("x-exrec-trace-id")
        .expect("every routed response carries its trace id")
        .to_owned();
    assert_eq!(trace_hex.len(), 32, "128-bit id as 32 hex chars");
    assert!(trace_hex.chars().all(|c| c.is_ascii_hexdigit()));
    trace_hex
}

/// The phase paths of the resident record with `trace_id`.
fn phases_of(records: &[RequestRecord], trace_id: &str) -> Vec<String> {
    let matching: Vec<&RequestRecord> = records.iter().filter(|r| r.trace_id == trace_id).collect();
    assert_eq!(matching.len(), 1, "one record per trace id");
    matching[0].phases.iter().map(|(p, _)| p.clone()).collect()
}

#[test]
fn bad_requests_are_logged_as_their_flight_records() {
    // Objective 0 ns: every request is bad and logged. Target 0: no
    // error budget to burn, so no burn rule trips.
    let (handle, _telemetry) = start_traced(|server| {
        server.debug_endpoints = true;
        server.watch.slo_objective_ns = 0;
        server.watch.slo_target = 0.0;
    });

    let recommend = logged_request(
        &handle,
        "/v1/recommend",
        r#"{"users": [0, 1, 2, 3], "n": 3, "explain": true}"#,
    );
    let explain = logged_request(&handle, "/v1/explain", r#"{"user": 0, "item": 1}"#);

    let response = client::request(handle.addr(), "GET", "/debug/requests", &[], "").unwrap();
    assert_eq!(response.status, 200);
    let body: DebugRequestsBody = serde_json::from_str(&response.body).unwrap();

    // The recommend's record covers the edge (queue wait and parse on a
    // fresh connection), admission, and the scans the batch pool's
    // workers ran under the request's phase context.
    let phases = phases_of(&body.requests, &recommend);
    for phase in ["queue_wait", "parse", "handle;admit"] {
        assert!(phases.iter().any(|p| p == phase), "{phase}: {phases:?}");
    }
    assert!(
        phases.iter().any(|p| p.starts_with("handle;scan")),
        "pool workers' scans: {phases:?}"
    );
    // The ranking hands every item its neighbourhood, so an explained
    // recommend gathers no evidence of its own.
    assert!(
        !phases.iter().any(|p| p.contains("evidence")),
        "ranked items reuse the ranking's evidence: {phases:?}"
    );

    // A single-pair explain gathers its evidence in one timed call.
    let phases = phases_of(&body.requests, &explain);
    assert!(
        phases.iter().any(|p| p.ends_with("evidence")),
        "the explain's evidence: {phases:?}"
    );

    handle.shutdown();
}

#[test]
fn fast_request_below_threshold_flushes_nothing_but_slo_advances() {
    // The default 250 ms objective: a fast request is not logged.
    let (handle, telemetry) = start_traced(|server| server.ts.interval_ns = 20_000_000);

    let response = client::request(
        handle.addr(),
        "POST",
        "/v1/recommend",
        &[],
        r#"{"users": [0, 1], "n": 2}"#,
    )
    .unwrap();
    assert_eq!(response.status, 200, "body: {}", response.body);
    // The trace id is still minted and returned even when the record
    // is not logged — clients can always correlate.
    assert!(response.header("x-exrec-trace-id").is_some());

    // The next tick refreshes the SLO window gauges from the sampler's
    // rings.
    let total = telemetry.metrics().gauge("slo.window_total.recommend");
    let deadline = Instant::now() + Duration::from_secs(30);
    while total.get() < 1.0 {
        assert!(
            Instant::now() < deadline,
            "no tick refreshed the slo gauges"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let report = telemetry.report();
    assert_eq!(report.gauges["slo.window_good.recommend"], 1.0);
    assert!(report.gauges.contains_key("slo.good_ratio.recommend"));
    assert!(report.gauges.contains_key("slo.burn_rate.recommend"));
    assert_eq!(report.counters.get("trace.flushed").copied(), Some(0));

    handle.shutdown();
}

/// Polls `until` on the server's watchdog for up to 30 s.
fn wait_for(handle: &ServerHandle, what: &str, mut until: impl FnMut(&ServerHandle) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !until(handle) {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn healthz_reports_backpressure_and_degrades_on_fast_burn() {
    // An impossible objective (0ns): every request is bad, so the first
    // tick in which `recommend` serves ten requests trips its burn rule.
    let (handle, _telemetry) = start_traced(|server| {
        server.ts.interval_ns = 200_000_000;
        server.watch.slo_objective_ns = 0;
        server.watch.trip_after = 1;
    });
    let clear_after = u64::from(ServerConfig::default().watch.clear_after);

    // Before any traffic: healthy, zero saturation.
    let before: HealthResponse = serde_json::from_str(
        &client::request(handle.addr(), "GET", "/healthz", &[], "")
            .unwrap()
            .body,
    )
    .expect("healthz JSON");
    assert_eq!(before.status, "ok");
    assert_eq!(before.workers, 2);
    assert!(before.queue_saturation >= 0.0 && before.queue_saturation <= 1.0);
    assert!(
        before.busy_workers >= 1,
        "the health check itself occupies a worker"
    );
    assert!(before.worker_saturation > 0.0 && before.worker_saturation <= 1.0);

    // Requests that all miss the 0ns objective, until the rule trips.
    let mut client = Connection::open(handle.addr()).unwrap();
    wait_for(&handle, "the burn rule to trip", |handle| {
        let ok = client
            .roundtrip("POST", "/v1/recommend", r#"{"users": [0], "n": 2}"#)
            .unwrap();
        assert_eq!(ok.status, 200);
        handle.watchdog().active() > 0
    });
    let after: HealthResponse = serde_json::from_str(
        &client::request(handle.addr(), "GET", "/healthz", &[], "")
            .unwrap()
            .body,
    )
    .expect("healthz JSON");
    assert_eq!(after.status, "degraded");
    let rec = after.slo.get("recommend").expect("recommend route tracked");
    assert!(rec.total >= 10, "{rec:?}");
    assert_eq!(rec.good, 0, "nothing meets a 0ns objective");
    assert!(rec.degraded);
    assert!(rec.burn_rate >= 1.0);
    let standing = after.incidents.expect("incident standing");
    assert_eq!(
        standing.last_rule.as_deref(),
        Some("slo_fast_burn.recommend")
    );

    // Quiet ticks clear the incident; nothing else opened or dumped.
    wait_for(&handle, "the incident to close", |h| {
        h.watchdog().active() == 0
    });
    let watch = handle.watchdog();
    assert_eq!((watch.opened(), watch.flight_dumps()), (1, 1));
    let incident = &watch.incidents()[0];
    assert_eq!(incident.rule, "slo_fast_burn.recommend");
    assert_eq!(incident.kind, "burn");
    let closed = incident.closed_epoch.expect("closed");
    assert!(
        closed >= incident.opened_epoch + clear_after,
        "{incident:?}"
    );
    let healed: HealthResponse = serde_json::from_str(
        &client::request(handle.addr(), "GET", "/healthz", &[], "")
            .unwrap()
            .body,
    )
    .expect("healthz JSON");
    assert_eq!(healed.status, "ok");

    handle.shutdown();
}

#[test]
fn metrics_negotiates_prometheus_text_alongside_json() {
    let (handle, _telemetry) = start_traced(|_| {});
    // Generate some traffic so the families exist.
    let ok = client::request(
        handle.addr(),
        "POST",
        "/v1/recommend",
        &[],
        r#"{"users": [0, 1], "n": 2}"#,
    )
    .unwrap();
    assert_eq!(ok.status, 200);

    // Default: the JSON report, as before.
    let json = client::request(handle.addr(), "GET", "/metrics", &[], "").unwrap();
    assert_eq!(json.header("content-type"), Some("application/json"));
    assert!(json.body.contains("\"counters\""));

    // Accept: text/plain → exposition 0.0.4.
    let text = client::request(
        handle.addr(),
        "GET",
        "/metrics",
        &[("accept", "text/plain")],
        "",
    )
    .unwrap();
    assert_eq!(
        text.header("content-type"),
        Some("text/plain; version=0.0.4")
    );
    assert!(text.body.contains("# TYPE serve_requests counter\n"));
    assert!(text
        .body
        .contains("# TYPE serve_latency_ns_recommend histogram\n"));
    assert!(text
        .body
        .contains("serve_latency_ns_recommend_bucket{le=\"+Inf\"}"));
    assert!(text.body.contains("serve_latency_ns_recommend_count"));
    // Histogram buckets are cumulative: parse one family and check
    // monotonicity end to end.
    let mut last = 0u64;
    let mut saw_bucket = false;
    for line in text.body.lines() {
        if let Some(rest) = line.strip_prefix("serve_latency_ns_recommend_bucket{le=") {
            let value: u64 = rest
                .split_whitespace()
                .next_back()
                .unwrap()
                .parse()
                .expect("bucket count");
            assert!(value >= last, "buckets must be cumulative: {line}");
            last = value;
            saw_bucket = true;
        }
    }
    assert!(saw_bucket);

    handle.shutdown();
}

#[test]
fn trace_ids_are_unique_across_requests() {
    let (handle, _telemetry) = start_traced(|_| {});
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    for i in 0..8 {
        let response = client::request(
            handle.addr(),
            "POST",
            "/v1/explain",
            &[],
            r#"{"user": 0, "item": 1}"#,
        )
        .unwrap();
        let id = response
            .header("x-exrec-trace-id")
            .expect("trace header")
            .to_owned();
        *seen.entry(id).or_default() += 1;
        let _ = i;
    }
    assert_eq!(seen.len(), 8, "every request gets a distinct trace id");
    handle.shutdown();
}
