//! Tracing and SLO integration tests over real loopback sockets: the
//! acceptance behaviours of the request-scoped tracing layer.
//!
//! * A traced `POST /v1/recommend` reconstructs as a complete span tree
//!   (edge → queue → batch worker → explainer) from the flushed trace,
//!   and the `x-exrec-trace-id` response header carries the tree's id;
//!   a traced `POST /v1/explain` carries its one evidence call.
//! * A fast request below the tail threshold flushes nothing while the
//!   `slo.*` window gauges still advance on the next sampler tick.
//! * `/healthz` exposes backpressure (queue/worker saturation) and the
//!   per-route SLO standing, turning `degraded` while a route's
//!   fast-burn rule stands and `ok` again once it clears.

mod common;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use exrec_obs::{
    CountingSubscriber, Metrics, SpanEvent, Subscriber, TailConfig, TailSamplingSubscriber,
    Telemetry,
};
use exrec_serve::client::{self, Connection};
use exrec_serve::proto::HealthResponse;
use exrec_serve::server::{ServerConfig, ServerHandle};

/// Starts a server whose subscriber is a tail sampler in front of a
/// collector, returning both.
fn start_traced(
    tail: TailConfig,
    configure: impl FnOnce(&mut ServerConfig),
) -> (ServerHandle, Arc<CountingSubscriber>, Telemetry) {
    let collector = Arc::new(CountingSubscriber::new());
    let metrics = Arc::new(Metrics::new());
    let sampler = TailSamplingSubscriber::new(Arc::clone(&collector) as Arc<dyn Subscriber>, tail)
        .with_metrics(&metrics);
    let telemetry = Telemetry::new(metrics, Arc::new(sampler));
    let handle = common::start_server(telemetry.clone(), |server, app| {
        server.trace_seed = Some(42);
        app.pool_threads = 2;
        configure(server);
    });
    (handle, collector, telemetry)
}

/// The spans of one trace, keyed for tree checks.
fn trace_spans(events: &[SpanEvent], trace_hex: &str) -> Vec<SpanEvent> {
    events
        .iter()
        .filter(|e| e.trace_id.as_deref() == Some(trace_hex))
        .cloned()
        .collect()
}

#[test]
fn recommend_request_reconstructs_as_one_span_tree() {
    // Threshold 0: every completed trace flushes.
    let (handle, collector, _telemetry) = start_traced(
        TailConfig {
            slow_threshold_ns: 0,
            ..TailConfig::default()
        },
        |_| {},
    );

    let response = client::request(
        handle.addr(),
        "POST",
        "/v1/recommend",
        &[],
        r#"{"users": [0, 1, 2, 3], "n": 3, "explain": true}"#,
    )
    .unwrap();
    assert_eq!(response.status, 200, "body: {}", response.body);
    let trace_hex = response
        .header("x-exrec-trace-id")
        .expect("every routed response carries its trace id")
        .to_owned();
    assert_eq!(trace_hex.len(), 32, "128-bit id as 32 hex chars");
    assert!(trace_hex.chars().all(|c| c.is_ascii_hexdigit()));

    let spans = trace_spans(&collector.events(), &trace_hex);
    assert!(
        !spans.is_empty(),
        "trace must have flushed before the response"
    );

    // Exactly one root, and it is the edge's request span.
    let roots: Vec<&SpanEvent> = spans.iter().filter(|s| s.parent_id.is_none()).collect();
    assert_eq!(roots.len(), 1, "one root span per request");
    let root = roots[0];
    assert_eq!(root.name, "serve.request");
    assert!(root
        .fields
        .iter()
        .any(|(k, v)| k == "endpoint" && v == "recommend"));
    assert!(root.fields.iter().any(|(k, v)| k == "status" && v == "200"));

    // Parent links form a tree rooted at the root span: every non-root
    // parent id resolves to a span in the same trace.
    let ids: std::collections::BTreeSet<&str> =
        spans.iter().filter_map(|s| s.span_id.as_deref()).collect();
    assert_eq!(ids.len(), spans.len(), "span ids are unique");
    for span in &spans {
        if let Some(parent) = span.parent_id.as_deref() {
            assert!(
                ids.contains(parent),
                "span {} has dangling parent {parent}",
                span.name
            );
        }
    }

    // The tree covers every pipeline stage: edge → queue → batch
    // worker → explainer evidence.
    let by_name =
        |name: &str| -> Vec<&SpanEvent> { spans.iter().filter(|s| s.name == name).collect() };
    let queue_wait = by_name("serve.queue_wait");
    assert_eq!(queue_wait.len(), 1, "first request on the connection");
    assert_eq!(queue_wait[0].parent_id, root.span_id);
    let batch = by_name("batch");
    assert!(!batch.is_empty(), "batch span under the request");
    for b in &batch {
        assert_eq!(b.parent_id, root.span_id, "batch hangs off the edge span");
    }
    let explained = by_name("recommend_explained");
    assert!(
        !explained.is_empty(),
        "explainer spans crossed the worker-thread boundary"
    );
    let batch_ids: std::collections::BTreeSet<&str> =
        batch.iter().filter_map(|s| s.span_id.as_deref()).collect();
    for e in &explained {
        assert!(
            batch_ids.contains(e.parent_id.as_deref().unwrap()),
            "recommend_explained parents onto a batch span"
        );
    }
    // The ranking hands every item its neighbourhood, so an explained
    // recommend gathers no evidence of its own.
    assert!(
        by_name("explain.evidence").is_empty(),
        "ranked items reuse the ranking's evidence"
    );

    // Timeline: children start at or after the root's start offset.
    for span in &spans {
        assert!(
            span.start_offset_ns >= root.start_offset_ns,
            "{} starts before its root",
            span.name
        );
    }

    // The root flushes last (tail sampling forwards buffered children
    // first), so a consumer can key the flush on root arrival.
    assert_eq!(spans.last().unwrap().name, "serve.request");

    // A single-pair explain gathers its evidence in one timed model
    // call, and that call appears in the explain's own tree.
    let response = client::request(
        handle.addr(),
        "POST",
        "/v1/explain",
        &[],
        r#"{"user": 0, "item": 1}"#,
    )
    .unwrap();
    assert_eq!(response.status, 200, "body: {}", response.body);
    let explain_hex = response
        .header("x-exrec-trace-id")
        .expect("every routed response carries its trace id")
        .to_owned();
    let explain_spans = trace_spans(&collector.events(), &explain_hex);
    let explain_ids: std::collections::BTreeSet<&str> = explain_spans
        .iter()
        .filter_map(|s| s.span_id.as_deref())
        .collect();
    let evidence: Vec<&SpanEvent> = explain_spans
        .iter()
        .filter(|s| s.name == "explain.evidence")
        .collect();
    assert_eq!(evidence.len(), 1, "one evidence call per explain");
    assert!(
        explain_ids.contains(evidence[0].parent_id.as_deref().unwrap()),
        "evidence hangs off the explain's tree"
    );

    handle.shutdown();
}

#[test]
fn fast_request_below_threshold_flushes_nothing_but_slo_advances() {
    // Threshold effectively infinite, head sampling off: nothing earns
    // a flush.
    let (handle, collector, telemetry) = start_traced(
        TailConfig {
            slow_threshold_ns: u64::MAX,
            head_sample_every: 0,
            ..TailConfig::default()
        },
        |server| server.ts.interval_ns = 20_000_000,
    );

    let response = client::request(
        handle.addr(),
        "POST",
        "/v1/recommend",
        &[],
        r#"{"users": [0, 1], "n": 2}"#,
    )
    .unwrap();
    assert_eq!(response.status, 200, "body: {}", response.body);
    // The trace id is still minted and returned even when the trace is
    // ultimately dropped — clients can always correlate.
    let trace_hex = response.header("x-exrec-trace-id").unwrap().to_owned();

    // No traced span reached the subscriber behind the sampler.
    let events = collector.events();
    assert!(
        events.iter().all(|e| e.trace_id.is_none()),
        "fast clean traces are dropped wholesale"
    );
    assert!(events
        .iter()
        .all(|e| e.trace_id.as_deref() != Some(trace_hex.as_str())));

    // But the drop counter advanced, and the next tick refreshes the
    // SLO window gauges from the sampler's rings.
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
    assert!(report.counters["trace.dropped"] >= 1);
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
    let (handle, _collector, _telemetry) = start_traced(TailConfig::default(), |server| {
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
    let (handle, _collector, _telemetry) = start_traced(TailConfig::default(), |_| {});
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
    let (handle, _collector, _telemetry) = start_traced(TailConfig::default(), |_| {});
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
