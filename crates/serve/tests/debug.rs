//! Integration tests for the `/debug/*` introspection surface, the
//! always-on phase profiler and the request flight recorder, over real
//! loopback sockets: gating, profile completeness (phases must account
//! for ≥90% of measured wall time), the profile tree as the exact sum of
//! the filed requests, collapsed-stack export, and the flight ring
//! keeping the requests that were not logged.

mod common;

use std::collections::BTreeMap;

use exrec_obs::{PhaseSnapshot, Telemetry};
use exrec_serve::app::AppConfig;
use exrec_serve::client::{self, Connection};
use exrec_serve::proto::{DebugProfileBody, DebugRequestsBody, DebugWorldBody, HealthResponse};
use exrec_serve::server::{ServerConfig, ServerHandle};

fn start_server(configure: impl FnOnce(&mut ServerConfig, &mut AppConfig)) -> ServerHandle {
    common::start_server(Telemetry::default(), configure)
}

#[test]
fn debug_endpoints_are_forbidden_unless_enabled() {
    let handle = start_server(|_, _| {}); // debug_endpoints defaults to off
    let mut client = Connection::open(handle.addr()).unwrap();
    for path in ["/debug/profile", "/debug/requests", "/debug/world"] {
        let response = client.roundtrip("GET", path, "").unwrap();
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
            .roundtrip("POST", "/debug/profile", "{}")
            .unwrap()
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
        let response = client::request(
            addr,
            "POST",
            "/v1/recommend",
            &[],
            r#"{"users": [0, 1, 2, 3, 4, 5, 6, 7], "n": 5, "explain": true}"#,
        )
        .unwrap();
        assert_eq!(response.status, 200);
    }

    let response = client::request(addr, "GET", "/debug/requests", &[], "").unwrap();
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
fn profile_tree_is_the_sum_of_the_filed_requests() {
    let handle = start_server(|server, _| server.debug_endpoints = true);
    let addr = handle.addr();
    // Fresh connections, so queue wait and parse are filed too; several
    // users a request, so the batch pool's threads run phases as well.
    for _ in 0..4 {
        let response = client::request(
            addr,
            "POST",
            "/v1/recommend",
            &[],
            r#"{"users": [0, 1, 2, 3, 4, 5], "n": 4, "explain": true}"#,
        )
        .unwrap();
        assert_eq!(response.status, 200);
    }

    let get = |path| client::request(addr, "GET", path, &[], "").unwrap().body;
    let requests: DebugRequestsBody = serde_json::from_str(&get("/debug/requests")).unwrap();
    let profile: DebugProfileBody = serde_json::from_str(&get("/debug/profile")).unwrap();
    let records: Vec<_> = requests
        .requests
        .iter()
        .filter(|r| r.route == "recommend")
        .collect();
    assert_eq!(records.len(), 4);
    let root = profile
        .routes
        .iter()
        .find(|r| r.name == "recommend")
        .expect("recommend route profiled");
    assert_eq!(root.calls, 4, "one call per filed request");
    let durations: u64 = records.iter().map(|r| r.duration_ns).sum();
    assert_eq!(root.total_ns, durations, "the requests' durations");

    // Every phase node is its path's nanoseconds summed over the records.
    let mut filed: BTreeMap<String, u64> = BTreeMap::new();
    for (path, ns) in records.iter().flat_map(|r| &r.phases) {
        *filed.entry(path.clone()).or_default() += ns;
    }
    fn paths(node: &PhaseSnapshot, prefix: &str, out: &mut BTreeMap<String, u64>) {
        for child in &node.children {
            let path = format!("{prefix}{}", child.name);
            out.insert(path.clone(), child.total_ns);
            paths(child, &format!("{path};"), out);
        }
    }
    let mut tree = BTreeMap::new();
    paths(root, "", &mut tree);
    assert_eq!(tree, filed);
    assert!(filed.contains_key("queue_wait") && filed.contains_key("handle;scan"));
    handle.shutdown();
}

#[test]
fn debug_profile_exports_route_tree_and_collapsed_stacks() {
    let handle = start_server(|server, _| server.debug_endpoints = true);
    let addr = handle.addr();
    let mut client = Connection::open(addr).unwrap();
    for _ in 0..3 {
        let response = client
            .roundtrip(
                "POST",
                "/v1/recommend",
                r#"{"users": [0, 1], "n": 3, "explain": true}"#,
            )
            .unwrap();
        assert_eq!(response.status, 200);
    }

    // JSON shape: hierarchical per-route tree with self-time.
    let response = client.roundtrip("GET", "/debug/profile", "").unwrap();
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
    let mut client = Connection::open(addr).unwrap();
    client
        .send("GET", "/debug/profile", &[("accept", "text/plain")], "")
        .unwrap();
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
fn flight_ring_keeps_requests_that_were_not_logged() {
    // An objective no request can miss: nothing is logged to stderr.
    // The flight recorder must retain the requests anyway — that is its
    // reason to exist.
    let handle = start_server(|server, _| {
        server.debug_endpoints = true;
        server.watch.slo_objective_ns = u64::MAX;
    });
    let addr = handle.addr();

    let mut client = Connection::open(addr).unwrap();
    for _ in 0..4 {
        let response = client
            .roundtrip("POST", "/v1/recommend", r#"{"users": [0], "n": 2}"#)
            .unwrap();
        assert_eq!(response.status, 200);
    }

    // No record was logged…
    let flushed = handle.telemetry().metrics().counter("trace.flushed");
    assert_eq!(flushed.get(), 0, "fast clean requests are not logged");
    // …but the flight recorder kept every request, untorn.
    let response = client.roundtrip("GET", "/debug/requests", "").unwrap();
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
        assert!(!record.trace_id.is_empty(), "trace id retained unlogged");
        assert!(record.duration_ns > 0);
    }
    // The in-process view agrees with the HTTP view.
    assert!(handle.flight().recorded() >= 4);
    handle.shutdown();
}

#[test]
fn debug_world_and_healthz_expose_world_shape() {
    let handle = start_server(|server, _| server.debug_endpoints = true);
    let mut client = Connection::open(handle.addr()).unwrap();

    // Drive traffic so the scan engine's counters move.
    for _ in 0..2 {
        let response = client
            .roundtrip("POST", "/v1/recommend", r#"{"users": [0, 1, 2], "n": 3}"#)
            .unwrap();
        assert_eq!(response.status, 200);
    }

    let response = client.roundtrip("GET", "/debug/world", "").unwrap();
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
    assert!(scan.index_builds >= 1, "traffic built the candidate index");
    // A 60-user world is far below the pruned fallback floor, so every
    // scan ran exact — and says so.
    assert!(scan.exact_scans > 0, "traffic moved the scan engine");
    assert!(scan.exact_fallbacks > 0, "tiny world falls back to exact");
    assert_eq!(scan.pruned_scans, 0);
    assert!((0.0..=1.0).contains(&scan.prune_ratio));

    // /healthz (not debug-gated) carries no cache block either.
    let response = client.roundtrip("GET", "/healthz", "").unwrap();
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
