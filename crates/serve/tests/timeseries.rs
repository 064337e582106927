//! Integration tests for the continuous-telemetry surface over real
//! loopback sockets: the cooperative time-series sampler retaining
//! windowed per-interval digests, the anomaly watchdog latching exactly
//! one incident for an induced regression, the build/incident blocks
//! folded into `/healthz` and `/debug/world`, the Prometheus exposition
//! and every `/debug/*` body after mixed read/write traffic and an
//! overload burst, and the `obs_top` dashboard against a live server.

mod common;
mod promcheck;

use std::sync::Barrier;
use std::time::{Duration, Instant};

use exrec_core::aims::Aim;
use exrec_obs::{MetricsReport, Telemetry, TsSnapshot};
use exrec_serve::app::AppConfig;
use exrec_serve::client::{self, Connection};
use exrec_serve::proto::{
    DebugIncidentsBody, DebugIngestBody, DebugProfileBody, DebugQualityBody, DebugRequestsBody,
    DebugWorldBody, HealthResponse,
};
use exrec_serve::server::{ServerConfig, ServerHandle};

/// Starts a server with a fast sampler tick and the debug surface on.
fn start_server(configure: impl FnOnce(&mut ServerConfig, &mut AppConfig)) -> ServerHandle {
    common::start_server(Telemetry::default(), |server, app| {
        server.queue_bound = 32;
        server.debug_endpoints = true;
        server.ts.interval_ns = 25_000_000; // 25ms ticks
        server.ts.retention = 256;
        configure(server, app);
    })
}

/// Neuters every watchdog rule that ambient test traffic could trip,
/// so a test can arm exactly the rule it intends to regress.
fn disarm_watchdog(server: &mut ServerConfig) {
    server.watch.latency_zscore = 1e12;
    server.watch.error_rate_max = f64::INFINITY;
    server.watch.shed_rate_max = f64::INFINITY;
    server.watch.revision_lag_max = f64::INFINITY;
    server.watch.prune_ratio_min = -1.0;
    // A burn rule never trips with a zero target.
    server.watch.slo_target = 0.0;
}

#[test]
fn sampler_retains_windowed_digests_under_steady_traffic() {
    let handle = start_server(|server, _| {
        disarm_watchdog(server);
    });
    let mut client = Connection::open(handle.addr()).unwrap();

    // ~1.2s of steady traffic across ≥40 25ms tick windows; every
    // request drives the cooperative sampler from `record()`.
    let deadline = Instant::now() + Duration::from_millis(1_200);
    let mut requests = 0u64;
    while Instant::now() < deadline {
        let response = client
            .roundtrip("POST", "/v1/recommend", r#"{"users": [3], "n": 4}"#)
            .unwrap();
        assert_eq!(response.status, 200);
        requests += 1;
        std::thread::sleep(Duration::from_millis(2));
    }

    let snap: TsSnapshot = {
        let response = client.roundtrip("GET", "/debug/timeseries", "").unwrap();
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
        // Re-arm only the 5xx-rate rule; an effectively-infinite clear
        // threshold keeps the incident latched for the assertions.
        server.watch.error_rate_max = 0.5;
        server.watch.trip_after = 2;
        server.watch.clear_after = 1_000_000;
    });
    let mut client = Connection::open(handle.addr()).unwrap();

    // Warm up with clean traffic over a few ticks.
    for _ in 0..20 {
        let response = client
            .roundtrip("POST", "/v1/recommend", r#"{"users": [1], "n": 2}"#)
            .unwrap();
        assert_eq!(response.status, 200);
        std::thread::sleep(Duration::from_millis(3));
    }

    // The regression: a panic burst spanning several 25ms tick windows.
    let burst_start_ns = exrec_obs::trace::process_offset_ns();
    let burst_deadline = Instant::now() + Duration::from_millis(300);
    while Instant::now() < burst_deadline {
        let response = client
            .roundtrip(
                "POST",
                "/v1/recommend",
                r#"{"users": [1], "inject_panic": true}"#,
            )
            .unwrap();
        assert_eq!(response.status, 500);
        std::thread::sleep(Duration::from_millis(3));
    }
    let burst_end_ns = exrec_obs::trace::process_offset_ns();

    // Clean traffic afterwards: the latch must hold (clear_after is
    // effectively infinite), and no second incident may open.
    for _ in 0..30 {
        let response = client
            .roundtrip("POST", "/v1/recommend", r#"{"users": [1], "n": 2}"#)
            .unwrap();
        assert_eq!(response.status, 200);
        std::thread::sleep(Duration::from_millis(3));
    }

    let incidents: DebugIncidentsBody = {
        let response = client.roundtrip("GET", "/debug/incidents", "").unwrap();
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
        let response = client.roundtrip("GET", "/healthz", "").unwrap();
        serde_json::from_str(&response.body).expect("health body")
    };
    assert_eq!(health.status, "degraded");
    let standing = health.incidents.expect("incident standing");
    assert_eq!(standing.active, 1);
    assert_eq!(standing.flight_dumps, 1);
    assert_eq!(standing.last_rule.as_deref(), Some("error_rate"));

    // The JSON /metrics report tells the same story.
    let metrics: MetricsReport = {
        let response = client.roundtrip("GET", "/metrics", "").unwrap();
        serde_json::from_str(&response.body).expect("metrics body")
    };
    assert_eq!(metrics.counters["watch.incidents"], 1);
    assert_eq!(metrics.counters["watch.flight_dumps"], 1);
    assert!(metrics.counters["serve.panic"] > 0, "no panic counted");
    assert_eq!(metrics.gauges["watch.active"], 1.0);

    handle.shutdown();
}

#[test]
fn build_info_reports_schemas_in_health_and_world() {
    let handle = start_server(|server, _| {
        disarm_watchdog(server);
    });
    let mut client = Connection::open(handle.addr()).unwrap();

    let health: HealthResponse = {
        let response = client.roundtrip("GET", "/healthz", "").unwrap();
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
        let response = client.roundtrip("GET", "/debug/world", "").unwrap();
        assert_eq!(response.status, 200);
        serde_json::from_str(&response.body).expect("world body")
    };
    let world_build = world.build.expect("build info in /debug/world");
    assert_eq!(world_build.git_rev, build.git_rev);
    assert_eq!(world_build.threads, 2);

    handle.shutdown();
}

/// Request `i` of the mixed workload: 10% single explains, 20%
/// explained top-5, 10% journaled writes (every fifth a three-op batch
/// ending in a retract) and 60% plain top-10 for two users, over the
/// 60 x 40 world. `extra` is spliced into each JSON body.
fn mixed_request(i: usize, extra: &str) -> (&'static str, String) {
    let (user, item, stars) = (i * 17 % 60, i * 7 % 40, 1 + i / 10 % 5);
    match i % 10 {
        0 => (
            "/v1/explain",
            format!(r#"{{"user": {user}, "item": {item}, "interface": "item_average"{extra}}}"#),
        ),
        1 | 2 => (
            "/v1/recommend",
            format!(r#"{{"users": [{user}], "n": 5, "explain": true{extra}}}"#),
        ),
        3 if i % 50 == 23 => (
            "/v1/rate/batch",
            format!(
                r#"{{"ops": [{{"user": {user}, "item": {item}, "value": {stars}.0}}, {{"user": {}, "item": {}, "value": {}.0}}, {{"user": {user}, "item": {}}}]{extra}}}"#,
                (user + 1) % 60,
                i * 13 % 40,
                1 + i / 7 % 5,
                i * 3 % 40,
            ),
        ),
        3 => (
            "/v1/rate",
            format!(r#"{{"user": {user}, "item": {item}, "value": {stars}.0{extra}}}"#),
        ),
        _ => (
            "/v1/recommend",
            format!(
                r#"{{"users": [{user}, {}], "n": 10{extra}}}"#,
                (user + 1) % 60
            ),
        ),
    }
}

/// Sends request `i` of the mix on a fresh connection. Every answer
/// must be a 2xx carrying its trace id, a 422 withheld explanation, a
/// 429 shed or a 504 deadline; a transport error fails the test.
fn send_mixed(addr: std::net::SocketAddr, i: usize, extra: &str) -> u16 {
    let (path, body) = mixed_request(i, extra);
    let response = client::request(addr, "POST", path, &[], &body)
        .unwrap_or_else(|e| panic!("transport error on {path} {body}: {e}"));
    assert!(
        matches!(response.status, 200..=299 | 422 | 429 | 504),
        "{path} {body}: {} {}",
        response.status,
        response.body
    );
    if (200..300).contains(&response.status) {
        assert!(
            response
                .header("x-exrec-trace-id")
                .is_some_and(|id| !id.is_empty()),
            "2xx without a trace id: {path} {body}"
        );
    }
    response.status
}

/// `GET path` on its own connection; the body of a 200.
fn get(addr: std::net::SocketAddr, path: &str) -> String {
    let response = client::request(addr, "GET", path, &[], "").unwrap();
    assert_eq!(response.status, 200, "{path}: {}", response.body);
    response.body
}

#[test]
fn mixed_traffic_keeps_statuses_exposition_and_debug_bodies_sound() {
    let dir = std::env::temp_dir().join(format!("exrec-serve-mixed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let wal = dir.join("serve.wal");
    let handle = start_server(|server, app| {
        disarm_watchdog(server);
        server.queue_bound = 2;
        app.wal_path = Some(wal);
    });
    let addr = handle.addr();

    // The mix, one request at a time, then a burst of fresh
    // connections against the two-deep queue.
    for i in 0..150 {
        send_mixed(addr, i, "");
    }
    let start = Barrier::new(12);
    let statuses: Vec<u16> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..12)
            .map(|c| {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    (0..10)
                        .map(|k| send_mixed(addr, 150 + c * 10 + k, r#", "deadline_ms": 1000"#))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect()
    });
    assert!(statuses.contains(&429), "the burst never filled the queue");

    // The text exposition parses and carries every family.
    let text = client::request(addr, "GET", "/metrics", &[("accept", "text/plain")], "").unwrap();
    assert_eq!(
        text.header("content-type"),
        Some("text/plain; version=0.0.4")
    );
    let report = promcheck::check(&text.body);
    assert!(report.is_ok(), "{:?}", report.errors);
    for family in [
        "serve_requests",
        "serve_accepted",
        "serve_connections",
        "quality_samples",
        "quality_fidelity",
        "ingest_requests",
        "ingest_ops_applied",
        "wal_size_bytes",
        "wal_records",
        "wal_replayed",
        "ts_ticks",
        "ts_series",
        "watch_incidents",
        "watch_active",
        "watch_flight_dumps",
    ] {
        assert!(report.has_family(family), "missing family {family}");
    }
    for prefix in [
        "serve_latency_ns",
        "quality_score",
        "ingest_apply_ns",
        "ingest_wal_append_ns",
    ] {
        assert!(
            !report.families_with_prefix(prefix).is_empty(),
            "no {prefix}* family"
        );
    }

    // All seven debug bodies parse and show the traffic.
    let profile: DebugProfileBody = serde_json::from_str(&get(addr, "/debug/profile")).unwrap();
    assert!(profile
        .routes
        .iter()
        .any(|route| route.name == "recommend" && route.calls > 0));
    for line in profile.collapsed.lines() {
        let (stack, self_ns) = line.rsplit_once(' ').expect("`stack self_ns`");
        assert!(
            !stack.is_empty() && self_ns.parse::<u64>().is_ok(),
            "{line:?}"
        );
    }

    let requests: DebugRequestsBody = serde_json::from_str(&get(addr, "/debug/requests")).unwrap();
    assert!(requests
        .requests
        .iter()
        .any(|record| !record.phases.is_empty()));

    let quality: DebugQualityBody = serde_json::from_str(&get(addr, "/debug/quality")).unwrap();
    assert!(!quality.offline.is_empty());
    assert!(quality.online.samples > 0);
    assert_eq!(quality.selection.len(), Aim::ALL.len());

    let world = get(addr, "/debug/world");
    let raw: serde_json::Value = serde_json::from_str(&world).unwrap();
    for field in ["/scan/index_patches", "/scan/revision_lag"] {
        assert!(raw.pointer(field).is_some(), "/debug/world lacks {field}");
    }
    let world: DebugWorldBody = serde_json::from_str(&world).unwrap();
    assert!(world.users > 0 && world.items > 0 && world.ratings > 0);
    assert!(!world.model.is_empty());

    let ingest: DebugIngestBody = serde_json::from_str(&get(addr, "/debug/ingest")).unwrap();
    assert!(ingest.requests > 0 && ingest.applied > 0 && ingest.revision > 0);
    assert!(ingest.wal.expect("journaled").size_bytes > 0);

    let ts: TsSnapshot = serde_json::from_str(&get(addr, "/debug/timeseries")).unwrap();
    assert!(ts.schema > 0 && ts.interval_ns > 0 && ts.retention > 0 && ts.ticks > 0);
    assert!(ts
        .counters
        .get("serve.accepted")
        .is_some_and(|points| !points.is_empty()));
    let points: Vec<_> = ts.histograms.values().flatten().collect();
    assert!(!points.is_empty(), "no windowed histogram points");
    assert!(points.iter().all(|point| point.p50_ns <= point.p99_ns));

    let incidents: DebugIncidentsBody =
        serde_json::from_str(&get(addr, "/debug/incidents")).unwrap();
    assert!(incidents.schema > 0 && incidents.capacity > 0);

    // Every explain was quality-sampled, and nothing dropped: no quality
    // rule ever latched and the server still reports itself healthy.
    assert!(
        incidents
            .incidents
            .iter()
            .all(|incident| !incident.rule.starts_with("quality_sustained_low.")),
        "{:?}",
        incidents.incidents
    );
    let health: HealthResponse = serde_json::from_str(&get(addr, "/healthz")).unwrap();
    assert_eq!(health.status, "ok", "{:?}", health.quality);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn obs_top_renders_a_live_server() {
    let handle = start_server(|server, _| {
        disarm_watchdog(server);
    });
    let addr = handle.addr();
    let mut client = Connection::open(addr).unwrap();
    for _ in 0..40 {
        let response = client
            .roundtrip("POST", "/v1/recommend", r#"{"users": [2], "n": 3}"#)
            .unwrap();
        assert_eq!(response.status, 200);
        std::thread::sleep(Duration::from_millis(3));
    }

    let output = std::process::Command::new(env!("CARGO_BIN_EXE_obs_top"))
        .args(["--once", "--addr", &addr.to_string()])
        .output()
        .expect("run obs_top");
    assert!(output.status.success(), "{output:?}");
    let frame = String::from_utf8(output.stdout).unwrap();
    assert!(frame.contains(" · status ok · "), "{frame}");
    assert!(
        frame.lines().any(|line| line.starts_with("recommend ")),
        "no recommend route row: {frame}"
    );
    assert!(frame.contains("incident log: 0 active"), "{frame}");
    handle.shutdown();
}
