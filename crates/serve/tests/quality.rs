//! Integration tests for the explanation-quality surface: measured
//! aim-fit interface selection over HTTP (`?aim=` / body `aim`), the
//! gated `GET /debug/quality` endpoint, `quality.*` metric families in
//! the Prometheus exposition, quality standing in `/healthz`, sampled
//! quality scores riding along in flight records, the online
//! estimator agreeing with the offline fidelity measurement on the
//! same world, and the per-interface sustained-low rules: a drop within
//! one interface latches one incident, a switch between interfaces
//! none.

mod common;

use std::time::{Duration, Instant};

use exrec_obs::quality::QUALITY_FILL;
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
            quality_sample_every: 1,
            quality_pairs: 40,
            ..common::test_world()
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

/// `(user, item)` pairs.
type Pairs = Vec<(u32, u32)>;

/// The `pairs` that `interface` (`None` for the served default) explains
/// on `world`, split into those scoring at or above the quality floor
/// and those under it, as an app of the same world measures them.
fn pairs_by_score(
    world: AppConfig,
    interface: Option<&str>,
    pairs: impl IntoIterator<Item = (u32, u32)>,
) -> (Pairs, Pairs) {
    let app = ExplainApp::new(
        AppConfig {
            quality_sample_every: 1,
            ..world
        },
        Telemetry::default(),
    );
    let (mut high, mut low) = (Vec::new(), Vec::new());
    for (user, item) in pairs {
        let req = ExplainRequest {
            user,
            item,
            interface: interface.map(str::to_owned),
            aim: None,
            deadline_ms: None,
            inject_panic: None,
            inject_delay_ms: None,
        };
        if app.explain(&req, Deadline::after_ms(60_000)).is_ok() {
            // The streak resets on every sample at or above the floor.
            match app.quality_monitor().snapshot().low_streak {
                0 => high.push((user, item)),
                _ => low.push((user, item)),
            }
        }
    }
    (high, low)
}

/// Waits until the server's sampler has cut `ticks` more ticks.
fn wait_ticks(handle: &ServerHandle, ticks: u64) {
    let counter = handle.telemetry().metrics().counter("ts.ticks");
    let target = counter.get() + ticks;
    let deadline = Instant::now() + Duration::from_secs(30);
    while counter.get() < target {
        assert!(Instant::now() < deadline, "the sampler stopped ticking");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Explains `pairs` in `ticks` runs of nearly equal length, waiting out
/// one sampler tick after each, so the samples land in at least `ticks`
/// ticks. A quality rule judges only ticks with new samples of its
/// interface. Returns how many were answered with an explanation.
fn explain_across_ticks(
    handle: &ServerHandle,
    client: &mut Connection,
    interface: Option<&str>,
    pairs: &[(u32, u32)],
    ticks: u64,
) -> usize {
    let run = pairs.len().div_ceil(ticks as usize).max(1);
    let mut served = 0;
    for chunk in pairs.chunks(run) {
        served += explain_pairs(client, interface, chunk.iter().copied());
        wait_ticks(handle, 1);
    }
    served
}

/// A server over `world` that samples every explain, ticks every 25 ms
/// and judges quality alone: latency drift is not what these tests pin
/// (sub-millisecond p99s on 25 ms ticks move by whole buckets).
fn start_quality_server(world: AppConfig) -> ServerHandle {
    start_server(|server, app| {
        *app = world;
        app.quality_sample_every = 1;
        server.debug_endpoints = true;
        server.ts.interval_ns = 25_000_000;
        server.watch.latency_zscore = f64::INFINITY;
    })
}

/// Asserts the server opened no incident, dumped nothing and reads ok.
fn assert_quiet(addr: std::net::SocketAddr) {
    let incidents: DebugIncidentsBody = get_json(addr, "/debug/incidents");
    assert_eq!(incidents.opened, 0, "{:?}", incidents.incidents);
    assert_eq!(incidents.flight_dumps, 0);
    let health: HealthResponse = get_json(addr, "/healthz");
    assert_eq!(health.status, "ok", "{:?}", health.quality);
}

#[test]
fn a_real_quality_drop_latches_one_incident() {
    // `histogram` scores between about 0.17 and 0.48 on the test world:
    // its own high pairs arm its rule, its own low pairs are the drop.
    let interface = "histogram";
    let candidates = (0..3).flat_map(|k| (0..60u32).map(move |user| (user, (7 * user + k) % 40)));
    let (high, low) = pairs_by_score(common::test_world(), Some(interface), candidates);
    assert!(high.len() >= 10 && low.len() >= 40, "{high:?} {low:?}");
    let handle = start_quality_server(common::test_world());
    let addr = handle.addr();
    let mut client = Connection::open(addr).unwrap();

    // Fill: the rule judges the interface's rolling score only once its
    // window holds QUALITY_FILL samples, so all but one come up front.
    let fill: Pairs = high
        .iter()
        .copied()
        .cycle()
        .take(QUALITY_FILL - 1)
        .collect();
    assert_eq!(
        explain_pairs(&mut client, Some(interface), fill.iter().copied()),
        fill.len()
    );

    // Arm: one high sample in each of the rule's healthy warm-up ticks.
    let warmup = ServerConfig::default().watch.warmup_ticks;
    let arm = &high[..warmup as usize];
    assert_eq!(
        explain_across_ticks(&handle, &mut client, Some(interface), arm, warmup),
        arm.len()
    );
    let health: HealthResponse = get_json(addr, "/healthz");
    assert_eq!(health.status, "ok", "{:?}", health.quality);

    // The drop: low samples over twenty ticks, enough to replace every
    // high one in the 128-sample window, pull the rolling mean under
    // 0.25 and hold it there.
    let drop: Pairs = low.iter().copied().cycle().take(128).collect();
    assert_eq!(
        explain_across_ticks(&handle, &mut client, Some(interface), &drop, 20),
        drop.len()
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    while get_json::<HealthResponse>(addr, "/healthz").status != "degraded" {
        assert!(Instant::now() < deadline, "the drop never latched");
        std::thread::sleep(Duration::from_millis(5));
    }
    let health: HealthResponse = get_json(addr, "/healthz");
    assert!(health.quality.expect("quality standing").sustained_low);
    let incidents: DebugIncidentsBody = get_json(addr, "/debug/incidents");
    assert_eq!(incidents.opened, 1, "{:?}", incidents.incidents);
    assert_eq!(incidents.flight_dumps, 1);
    let incident = &incidents.incidents[0];
    assert_eq!(incident.rule, "quality_sustained_low.histogram");
    assert_eq!(incident.kind, "below");
    let debug: DebugQualityBody = get_json(addr, "/debug/quality");
    assert!(debug.online.sustained_low);
    handle.shutdown();
}

/// `n` default-world pairs from the `k`-th on.
fn default_pairs(from: u32, n: u32) -> Pairs {
    (from..from + n)
        .map(|k| (k * 7 % 2_000, k * 13 % 300))
        .collect()
}

#[test]
fn switching_interfaces_is_not_a_quality_drop() {
    // On the default world the default interface holds a rolling score
    // of about 0.17 and `neighbor_table` about 0.42. Healthy
    // `neighbor_table` samples arm only its own rule, so the default
    // interface's ordinary low scores before and after them are no
    // drop. Each leg spans enough sampled ticks for any rule to arm.
    let handle = start_quality_server(AppConfig::default());
    let addr = handle.addr();
    let mut client = Connection::open(addr).unwrap();
    let ticks = ServerConfig::default().watch.warmup_ticks + 2;

    let before = default_pairs(0, 200);
    assert!(explain_across_ticks(&handle, &mut client, None, &before, ticks) >= 100);
    let table: Pairs = (0..60u32).map(|k| (k * 31 % 2_000, k * 11 % 300)).collect();
    let table_served =
        explain_across_ticks(&handle, &mut client, Some("neighbor_table"), &table, ticks);
    assert!(table_served >= 30);
    let after = default_pairs(200, 200);
    assert!(explain_across_ticks(&handle, &mut client, None, &after, ticks) >= 100);
    wait_ticks(&handle, ticks);
    assert_quiet(addr);
    handle.shutdown();
}

#[test]
fn one_high_sample_held_over_idle_ticks_arms_nothing() {
    // A single default explain can score over the floor, and its
    // interface's rolling score holds that value while no explains
    // arrive. Idle ticks are no evidence: the ordinary samples after
    // them must not trip a rule the held score armed.
    let (high, _) = pairs_by_score(AppConfig::default(), None, default_pairs(0, 400));
    let first = *high.first().expect("a default explain over the floor");
    let handle = start_quality_server(AppConfig::default());
    let addr = handle.addr();
    let mut client = Connection::open(addr).unwrap();
    let warmup = ServerConfig::default().watch.warmup_ticks;

    assert_eq!(explain_pairs(&mut client, None, [first]), 1);
    wait_ticks(&handle, warmup + 2);
    let after = default_pairs(400, 200);
    assert!(explain_across_ticks(&handle, &mut client, None, &after, warmup + 2) >= 100);
    wait_ticks(&handle, 2);
    assert_quiet(addr);
    handle.shutdown();
}
