//! Integration tests for the explanation-quality surface: measured
//! aim-fit interface selection over HTTP (`?aim=` / body `aim`), the
//! gated `GET /debug/quality` endpoint, `quality.*` metric families in
//! the Prometheus exposition, quality standing in `/healthz`, sampled
//! quality scores riding along in flight records, and the online
//! estimator agreeing with the offline fidelity measurement on the
//! same world.

mod common;

use exrec_obs::Telemetry;
use exrec_serve::app::{AppConfig, Deadline, ExplainApp};
use exrec_serve::client::{self, Connection};
use exrec_serve::proto::{
    DebugIncidentsBody, DebugQualityBody, DebugRequestsBody, ExplainRequest, ExplainResponse,
    HealthResponse,
};
use exrec_serve::server::{ServerConfig, ServerHandle};

fn start_server(configure: impl FnOnce(&mut ServerConfig, &mut AppConfig)) -> ServerHandle {
    common::start_server(Telemetry::default(), configure)
}

#[test]
fn debug_quality_is_gated_like_the_other_debug_endpoints() {
    let handle = start_server(|_, _| {}); // debug_endpoints defaults to off
    let mut client = Connection::open(handle.addr()).unwrap();
    let response = client.roundtrip("GET", "/debug/quality", "").unwrap();
    assert_eq!(response.status, 403);
    assert!(
        response.body.contains("debug_disabled"),
        "{}",
        response.body
    );
    // The route exists even when gated: wrong method is 405, not 404.
    assert_eq!(
        client
            .roundtrip("POST", "/debug/quality", "{}")
            .unwrap()
            .status,
        405
    );
    handle.shutdown();
}

#[test]
fn aim_fit_selection_beats_the_static_default_over_http() {
    let handle = start_server(|server, _| server.debug_endpoints = true);
    let mut client = Connection::open(handle.addr()).unwrap();

    let response = client.roundtrip("GET", "/debug/quality", "").unwrap();
    assert_eq!(response.status, 200);
    let body: DebugQualityBody = serde_json::from_str(&response.body).unwrap();
    assert!(
        !body.offline.is_empty(),
        "startup scoring pass seeded the book"
    );
    assert!(
        body.offline.iter().any(|q| q.samples > 0),
        "at least one interface measurable on the served world"
    );
    assert_eq!(body.selection.len(), 7, "one selection row per aim");

    // At least one aim must select a different, strictly
    // higher-scoring interface than the static default (the first
    // catalog interface declaring the aim).
    let improved = body
        .selection
        .iter()
        .find(|row| {
            row.static_default.as_deref() != Some(row.selected.as_str())
                && row.score > row.static_score
        })
        .expect("measured selection beats the static default for some aim");

    // Asking for that aim (body field) returns the measured winner,
    // not the static default.
    let request = format!(r#"{{"user": 0, "item": 1, "aim": "{}"}}"#, improved.aim);
    let response = client.roundtrip("POST", "/v1/explain", &request).unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let explained: ExplainResponse = serde_json::from_str(&response.body).unwrap();
    assert_eq!(explained.explanation.interface, improved.selected);
    assert_eq!(explained.aim.as_deref(), Some(improved.aim.as_str()));

    // `?aim=` on the URL is an equivalent spelling.
    let path = format!("/v1/explain?aim={}", improved.aim);
    let response = client
        .roundtrip("POST", &path, r#"{"user": 0, "item": 1}"#)
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let explained: ExplainResponse = serde_json::from_str(&response.body).unwrap();
    assert_eq!(explained.explanation.interface, improved.selected);
    assert_eq!(explained.aim.as_deref(), Some(improved.aim.as_str()));

    // An explicit interface always wins over the aim's selection.
    let request = format!(
        r#"{{"user": 0, "item": 1, "aim": "{}", "interface": "item_average"}}"#,
        improved.aim
    );
    let response = client.roundtrip("POST", "/v1/explain", &request).unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let explained: ExplainResponse = serde_json::from_str(&response.body).unwrap();
    assert_eq!(explained.explanation.interface, "item_average");

    // Unknown aims are a client error, with the offending name echoed.
    let response = client
        .roundtrip(
            "POST",
            "/v1/explain",
            r#"{"user": 0, "item": 1, "aim": "speed"}"#,
        )
        .unwrap();
    assert_eq!(response.status, 400);
    assert!(response.body.contains("speed"), "{}", response.body);
    handle.shutdown();
}

#[test]
fn sampled_quality_flows_to_metrics_healthz_and_flight_records() {
    let handle = start_server(|server, app| {
        server.debug_endpoints = true;
        app.quality_sample_every = 1; // sample every explain request
    });
    let mut client = Connection::open(handle.addr()).unwrap();

    let mut served = 0usize;
    for user in 0..10u32 {
        for item in 0..4u32 {
            let request = format!(r#"{{"user": {user}, "item": {item}}}"#);
            let response = client.roundtrip("POST", "/v1/explain", &request).unwrap();
            // Cold pairs are a legitimate 422; everything else is a bug.
            assert!(
                response.status == 200 || response.status == 422,
                "{}: {}",
                response.status,
                response.body
            );
            if response.status == 200 {
                served += 1;
            }
        }
    }
    assert!(served >= 5, "enough explainable pairs: {served}");

    // quality.* families render through the Prometheus exposition
    // (dots become underscores).
    let mut prom = Connection::open(handle.addr()).unwrap();
    prom.send("GET", "/metrics", &[("accept", "text/plain")], "")
        .unwrap();
    let response = prom.read_response().expect("metrics response");
    assert_eq!(response.status, 200);
    for family in ["quality_samples", "quality_score", "quality_fidelity"] {
        assert!(
            response.body.contains(family),
            "{family} family in exposition"
        );
    }

    // /healthz carries the quality standing (not debug-gated).
    let response = client.roundtrip("GET", "/healthz", "").unwrap();
    assert_eq!(response.status, 200);
    let health: HealthResponse = serde_json::from_str(&response.body).unwrap();
    let quality = health.quality.expect("quality standing in healthz");
    assert_eq!(quality.sample_every, 1);
    assert!(quality.samples >= served as u64);
    assert!((0.0..=1.0).contains(&quality.mean_score));

    // Sampled requests carry their quality score into the flight ring.
    let response = client.roundtrip("GET", "/debug/requests", "").unwrap();
    assert_eq!(response.status, 200);
    let body: DebugRequestsBody = serde_json::from_str(&response.body).unwrap();
    let scored: Vec<_> = body
        .requests
        .iter()
        .filter(|r| r.route == "explain" && r.status == 200)
        .collect();
    assert!(!scored.is_empty());
    assert!(
        scored.iter().all(|r| r.quality.is_some()),
        "every sampled 200 explain carries its quality score"
    );
    assert!(scored
        .iter()
        .all(|r| (0.0..=1.0).contains(&r.quality.unwrap())));

    // The live estimator agrees with the debug surface.
    let response = client.roundtrip("GET", "/debug/quality", "").unwrap();
    let debug: DebugQualityBody = serde_json::from_str(&response.body).unwrap();
    assert!(debug.online.samples >= served as u64);
    handle.shutdown();
}

#[test]
fn online_estimator_agrees_with_offline_fidelity_on_the_same_world() {
    // App-level (no sockets): sample every request, pin the interface,
    // and compare the online rolling fidelity against the offline
    // startup measurement of the same interface on the same world.
    let app = ExplainApp::new(
        AppConfig {
            n_users: 60,
            n_items: 40,
            density: 0.3,
            quality_sample_every: 1,
            quality_pairs: 40,
            ..AppConfig::default()
        },
        Telemetry::default(),
    );
    let interface = "clustered_histogram";
    let offline = app
        .quality_book()
        .measured(interface)
        .expect("measured at startup");
    assert!(offline.samples > 0, "interface measurable offline");

    let mut served = 0usize;
    for user in 0..30u32 {
        for item in 0..6u32 {
            let req = ExplainRequest {
                user,
                item,
                interface: Some(interface.to_owned()),
                aim: None,
                deadline_ms: None,
                inject_panic: None,
                inject_delay_ms: None,
            };
            if app.explain(&req, Deadline::after_ms(60_000)).is_ok() {
                served += 1;
            }
        }
    }
    assert!(served >= 20, "enough sampled explanations: {served}");

    let snapshot = app.quality_monitor().snapshot();
    let online = snapshot
        .interfaces
        .iter()
        .find(|s| s.name == interface)
        .expect("online stats for the pinned interface");
    assert!(online.samples >= served as u64);

    // Stated tolerance: the two estimators sample different pair sets
    // of the same (world, model, interface) population, so their mean
    // ablation fidelities must land within 0.2 of each other.
    let gap = (online.fidelity - offline.fidelity).abs();
    assert!(
        gap <= 0.2,
        "online fidelity {:.3} vs offline {:.3} (gap {gap:.3})",
        online.fidelity,
        offline.fidelity
    );
}

/// `GET path` as JSON, on its own connection.
fn get_json<T: serde::Deserialize>(addr: std::net::SocketAddr, path: &str) -> T {
    let response = client::request(addr, "GET", path, &[], "").unwrap();
    assert_eq!(response.status, 200, "{path}: {}", response.body);
    serde_json::from_str(&response.body).unwrap()
}

/// Explains `pairs` with `interface` (`None` for the served default) and
/// returns how many were answered with an explanation.
fn explain_pairs(
    client: &mut Connection,
    interface: Option<&str>,
    pairs: impl IntoIterator<Item = (u32, u32)>,
) -> usize {
    let mut served = 0;
    for (user, item) in pairs {
        let interface = interface
            .map(|name| format!(r#", "interface": "{name}""#))
            .unwrap_or_default();
        let request = format!(r#"{{"user": {user}, "item": {item}{interface}}}"#);
        let response = client.roundtrip("POST", "/v1/explain", &request).unwrap();
        assert!(
            matches!(response.status, 200 | 422),
            "{}: {}",
            response.status,
            response.body
        );
        served += usize::from(response.status == 200);
    }
    served
}

#[test]
fn default_explains_on_the_default_world_leave_health_ok() {
    // The default interface scores under the absolute low threshold from
    // its first sample on. Nothing dropped, so nothing may latch.
    let handle = start_server(|server, app| {
        server.debug_endpoints = true;
        *app = AppConfig::default();
    });
    let mut client = Connection::open(handle.addr()).unwrap();
    let pairs = (0..200u32).map(|k| (k * 7 % 2_000, k * 13 % 300));
    let served = explain_pairs(&mut client, None, pairs);
    assert!(served >= 100, "only {served} of 200 explained");

    let health: HealthResponse = get_json(handle.addr(), "/healthz");
    let quality = health.quality.expect("quality standing");
    assert!(quality.samples >= 8, "{quality:?}");
    assert_eq!(health.status, "ok", "{quality:?}");
    let incidents: DebugIncidentsBody = get_json(handle.addr(), "/debug/incidents");
    assert_eq!(incidents.opened, 0, "{:?}", incidents.incidents);
    handle.shutdown();
}

#[test]
fn a_real_quality_drop_latches_one_incident() {
    let handle = start_server(|server, app| {
        server.debug_endpoints = true;
        app.quality_sample_every = 1;
    });
    let addr = handle.addr();
    let mut client = Connection::open(addr).unwrap();
    let pairs = || (0..60u32).map(|user| (user, user * 7 % 40));

    // neighbor_table cites every neighbour it draws on (coverage 1), so
    // each of its scores is at least 1/3: healthy samples that arm the
    // streak without tripping it.
    assert!(explain_pairs(&mut client, Some("neighbor_table"), pairs()) >= 8);
    let health: HealthResponse = get_json(addr, "/healthz");
    assert_eq!(health.status, "ok", "{:?}", health.quality);

    // item_average scores under the threshold on most pairs: the drop.
    let latched = pairs().any(|pair| {
        explain_pairs(&mut client, Some("item_average"), [pair]);
        get_json::<HealthResponse>(addr, "/healthz").status == "degraded"
    });
    assert!(latched, "item_average never latched the streak");
    let incidents: DebugIncidentsBody = get_json(addr, "/debug/incidents");
    assert_eq!(incidents.opened, 1, "{:?}", incidents.incidents);
    assert_eq!(incidents.flight_dumps, 1);
    assert_eq!(incidents.incidents[0].rule, "quality_sustained_low");
    handle.shutdown();
}
