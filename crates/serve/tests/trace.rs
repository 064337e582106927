//! Tracing and SLO integration tests over real loopback sockets: the
//! acceptance behaviours of the request-scoped tracing layer.
//!
//! * A traced `POST /v1/recommend` reconstructs as a complete span tree
//!   (edge → queue → batch worker → explainer) from the flushed trace,
//!   and the `x-exrec-trace-id` response header carries the tree's id;
//!   a traced `POST /v1/explain` carries its one evidence call.
//! * A fast request below the tail threshold flushes nothing while the
//!   `slo.*` window gauges still advance.
//! * `/healthz` exposes backpressure (queue/worker saturation) and the
//!   per-route SLO standing, turning `degraded` when a fast-burn
//!   window trips.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use exrec_obs::{
    CountingSubscriber, Metrics, SloConfig, SpanEvent, Subscriber, TailConfig,
    TailSamplingSubscriber, Telemetry,
};
use exrec_serve::app::{AppConfig, ExplainApp};
use exrec_serve::proto::HealthResponse;
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

/// One-shot request over a fresh connection (each request is then the
/// "first on its connection", so it gets a `serve.queue_wait` span).
fn roundtrip(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    accept: Option<&str>,
) -> ClientResponse {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let body = body.unwrap_or("");
    let accept = accept
        .map(|a| format!("accept: {a}\r\n"))
        .unwrap_or_default();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\n{accept}content-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len(),
    );
    writer.write_all(request.as_bytes()).expect("send");

    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
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
        reader.read_line(&mut line).expect("header line");
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
    reader.read_exact(&mut body).expect("body");
    ClientResponse {
        status,
        headers,
        body: String::from_utf8(body).expect("utf-8 body"),
    }
}

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
    let mut server_config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_bound: 16,
        default_deadline_ms: 10_000,
        trace_seed: Some(42),
        ..ServerConfig::default()
    };
    configure(&mut server_config);
    let app_config = AppConfig {
        n_users: 60,
        n_items: 40,
        density: 0.3,
        pool_threads: 2,
        ..AppConfig::default()
    };
    let app = ExplainApp::new(app_config, telemetry.clone());
    let handle = server::start(app, server_config, telemetry.clone()).expect("start server");
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

    let response = roundtrip(
        handle.addr(),
        "POST",
        "/v1/recommend",
        Some(r#"{"users": [0, 1, 2, 3], "n": 3, "explain": true}"#),
        None,
    );
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
    let response = roundtrip(
        handle.addr(),
        "POST",
        "/v1/explain",
        Some(r#"{"user": 0, "item": 1}"#),
        None,
    );
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
        |_| {},
    );

    let response = roundtrip(
        handle.addr(),
        "POST",
        "/v1/recommend",
        Some(r#"{"users": [0, 1], "n": 2}"#),
        None,
    );
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

    // But the SLO window and the drop counter both advanced.
    let report = telemetry.report();
    assert!(
        report.gauges["slo.window_total.recommend"] >= 1.0,
        "slo window gauges advance on every request"
    );
    assert!(report.gauges.contains_key("slo.good_ratio.recommend"));
    assert!(report.gauges.contains_key("slo.burn_rate.recommend"));
    assert!(report.counters["trace.dropped"] >= 1);
    assert_eq!(report.counters.get("trace.flushed").copied(), Some(0));

    handle.shutdown();
}

#[test]
fn healthz_reports_backpressure_and_degrades_on_fast_burn() {
    // An impossible objective (0ns) with a hair-trigger fast-burn
    // window: every request is bad, so the SLO degrades immediately.
    let (handle, _collector, _telemetry) = start_traced(TailConfig::default(), |server| {
        server.slo = SloConfig {
            objective_ns: 0,
            min_events: 1,
            fast_burn_threshold: 1.0,
            ..SloConfig::default()
        };
    });

    // Before any traffic: healthy, empty SLO map, zero saturation.
    let before: HealthResponse =
        serde_json::from_str(&roundtrip(handle.addr(), "GET", "/healthz", None, None).body)
            .expect("healthz JSON");
    assert_eq!(before.workers, 2);
    assert!(before.queue_saturation >= 0.0 && before.queue_saturation <= 1.0);
    assert!(
        before.busy_workers >= 1,
        "the health check itself occupies a worker"
    );
    assert!(before.worker_saturation > 0.0 && before.worker_saturation <= 1.0);

    // Serve a request (it will miss the 0ns objective), then re-check.
    let ok = roundtrip(
        handle.addr(),
        "POST",
        "/v1/recommend",
        Some(r#"{"users": [0], "n": 2}"#),
        None,
    );
    assert_eq!(ok.status, 200);
    let after: HealthResponse =
        serde_json::from_str(&roundtrip(handle.addr(), "GET", "/healthz", None, None).body)
            .expect("healthz JSON");
    assert_eq!(after.status, "degraded");
    let rec = after.slo.get("recommend").expect("recommend route tracked");
    assert_eq!(rec.total, 1);
    assert_eq!(rec.good, 0, "nothing meets a 0ns objective");
    assert!(rec.degraded);
    assert!(rec.burn_rate >= 1.0);

    handle.shutdown();
}

#[test]
fn metrics_negotiates_prometheus_text_alongside_json() {
    let (handle, _collector, _telemetry) = start_traced(TailConfig::default(), |_| {});
    // Generate some traffic so the families exist.
    let ok = roundtrip(
        handle.addr(),
        "POST",
        "/v1/recommend",
        Some(r#"{"users": [0, 1], "n": 2}"#),
        None,
    );
    assert_eq!(ok.status, 200);

    // Default: the JSON report, as before.
    let json = roundtrip(handle.addr(), "GET", "/metrics", None, None);
    assert_eq!(json.header("content-type"), Some("application/json"));
    assert!(json.body.contains("\"counters\""));

    // Accept: text/plain → exposition 0.0.4.
    let text = roundtrip(handle.addr(), "GET", "/metrics", None, Some("text/plain"));
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
        let response = roundtrip(
            handle.addr(),
            "POST",
            "/v1/explain",
            Some(r#"{"user": 0, "item": 1}"#),
            None,
        );
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
