//! Integration tests for the write path over real loopback sockets:
//! `POST /v1/rate` + `/v1/rate/batch` semantics (validation, batch
//! atomicity), reads observing writes, `/debug/ingest`, and the
//! journal round trip — a cleanly drained server compacts, and its
//! successor warm-restarts into a bit-identical serving world, as does
//! a world reopened over the snapshot plus an uncompacted journal tail.

mod common;

use std::path::PathBuf;

use exrec_obs::Telemetry;
use exrec_serve::app::{AppConfig, Deadline, ExplainApp};
use exrec_serve::client::Connection;
use exrec_serve::proto::{
    DebugIngestBody, DebugWorldBody, RateRequest, RateResponse, RecommendRequest, RecommendResponse,
};
use exrec_serve::server::{ServerConfig, ServerHandle};

/// Starts a server with the debug surface on.
fn start_server(configure: impl FnOnce(&mut ServerConfig, &mut AppConfig)) -> ServerHandle {
    common::start_server(Telemetry::default(), |server, app| {
        server.debug_endpoints = true;
        configure(server, app);
    })
}

/// A unique journal path under the OS temp dir.
fn temp_wal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("exrec-serve-ingest-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join("serve.wal")
}

#[test]
fn rate_applies_and_reads_observe_the_write() {
    let handle = start_server(|_, _| {});
    let mut client = Connection::open(handle.addr()).unwrap();

    let before = client.roundtrip("GET", "/debug/world", "").unwrap();
    let before: DebugWorldBody = serde_json::from_str(&before.body).unwrap();

    let response = client
        .roundtrip(
            "POST",
            "/v1/rate",
            r#"{"user": 3, "item": 5, "value": 5.0}"#,
        )
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let rated: RateResponse = serde_json::from_str(&response.body).unwrap();
    assert_eq!(rated.applied, 1);
    assert_eq!(rated.ops, 1);
    assert!(rated.revision > before.ratings_revision);
    assert_eq!(rated.wal_size_bytes, None, "no --wal-path, no journal");

    // A retract of an absent rating applies nothing but still succeeds.
    let response = client
        .roundtrip("POST", "/v1/rate", r#"{"user": 3, "item": 5}"#)
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let unrated: RateResponse = serde_json::from_str(&response.body).unwrap();
    assert_eq!(unrated.applied, 1, "the rating just written comes back out");
    let response = client
        .roundtrip("POST", "/v1/rate", r#"{"user": 3, "item": 5}"#)
        .unwrap();
    let noop: RateResponse = serde_json::from_str(&response.body).unwrap();
    assert_eq!(noop.applied, 0, "absent rating: nothing to retract");
    assert_eq!(
        noop.revision, unrated.revision,
        "no-op writes bump no revision"
    );

    // Reads keep flowing after writes, on the updated world.
    let response = client
        .roundtrip("POST", "/v1/recommend", r#"{"users": [3], "n": 5}"#)
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let recs: RecommendResponse = serde_json::from_str(&response.body).unwrap();
    assert_eq!(recs.results.len(), 1);

    let debug = client.roundtrip("GET", "/debug/ingest", "").unwrap();
    assert_eq!(debug.status, 200);
    let ingest: DebugIngestBody = serde_json::from_str(&debug.body).unwrap();
    assert_eq!(ingest.requests, 3);
    assert_eq!(ingest.applied, 2);
    assert_eq!(ingest.rejected, 0);
    assert!(ingest.wal.is_none());
    assert!(!ingest.snapshot_loaded);

    handle.shutdown();
}

#[test]
fn writes_are_validated_and_batches_are_atomic() {
    let handle = start_server(|_, _| {});
    let mut client = Connection::open(handle.addr()).unwrap();

    // Off-scale value → 422; unknown ids → 404; junk → 400.
    let response = client
        .roundtrip(
            "POST",
            "/v1/rate",
            r#"{"user": 0, "item": 0, "value": 99.0}"#,
        )
        .unwrap();
    assert_eq!(response.status, 422, "{}", response.body);
    let response = client
        .roundtrip(
            "POST",
            "/v1/rate",
            r#"{"user": 9999, "item": 0, "value": 3.0}"#,
        )
        .unwrap();
    assert_eq!(response.status, 404, "{}", response.body);
    let response = client
        .roundtrip("POST", "/v1/rate", r#"{"user": 0}"#)
        .unwrap();
    assert_eq!(response.status, 400, "{}", response.body);

    // Empty batch → 400; a batch with one bad op applies nothing.
    let response = client
        .roundtrip("POST", "/v1/rate/batch", r#"{"ops": []}"#)
        .unwrap();
    assert_eq!(response.status, 400, "{}", response.body);
    let revision_before: DebugIngestBody =
        serde_json::from_str(&client.roundtrip("GET", "/debug/ingest", "").unwrap().body).unwrap();
    let response = client
        .roundtrip(
            "POST",
            "/v1/rate/batch",
            r#"{"ops": [
                {"user": 0, "item": 1, "value": 4.0},
                {"user": 9999, "item": 1, "value": 4.0}
            ]}"#,
        )
        .unwrap();
    assert_eq!(response.status, 404, "{}", response.body);
    let after: DebugIngestBody =
        serde_json::from_str(&client.roundtrip("GET", "/debug/ingest", "").unwrap().body).unwrap();
    assert_eq!(
        after.revision, revision_before.revision,
        "rejected batch must apply none of its ops"
    );
    assert!(after.rejected >= 3);

    // A good batch lands whole.
    let response = client
        .roundtrip(
            "POST",
            "/v1/rate/batch",
            r#"{"ops": [
                {"user": 0, "item": 1, "value": 4.0},
                {"user": 1, "item": 2, "value": 2.0},
                {"user": 2, "item": 3}
            ]}"#,
        )
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let batch: RateResponse = serde_json::from_str(&response.body).unwrap();
    assert_eq!(batch.ops, 3);

    handle.shutdown();
}

#[test]
fn clean_restart_over_the_journal_serves_identical_recommendations() {
    let wal = temp_wal("restart");
    let recommend_body = r#"{"users": [0, 1, 2, 3], "n": 8}"#;

    // First life: journaled writes, then a clean drain (which compacts).
    let first = {
        let wal = wal.clone();
        let handle = start_server(move |_, app| app.wal_path = Some(wal));
        let mut client = Connection::open(handle.addr()).unwrap();
        for (user, item, value) in [(0, 1, 5.0), (1, 2, 1.0), (2, 3, 4.0), (0, 7, 2.0)] {
            let body = format!(r#"{{"user": {user}, "item": {item}, "value": {value:?}}}"#);
            let response = client.roundtrip("POST", "/v1/rate", &body).unwrap();
            assert_eq!(response.status, 200, "{}", response.body);
            let rated: RateResponse = serde_json::from_str(&response.body).unwrap();
            assert!(rated.wal_size_bytes.unwrap() > 0, "writes are journaled");
        }
        let response = client
            .roundtrip("POST", "/v1/rate", r#"{"user": 1, "item": 2}"#)
            .unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        let response = client
            .roundtrip("POST", "/v1/recommend", recommend_body)
            .unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        let body = response.body;
        handle.shutdown();
        body
    };
    assert!(
        exrec_data::wal::snapshot_path(&wal).exists(),
        "clean drain must compact the journal"
    );

    // Second life: warm restart from the compaction snapshot.
    let handle = {
        let wal = wal.clone();
        start_server(move |_, app| app.wal_path = Some(wal))
    };
    let mut client = Connection::open(handle.addr()).unwrap();
    let ingest: DebugIngestBody =
        serde_json::from_str(&client.roundtrip("GET", "/debug/ingest", "").unwrap().body).unwrap();
    assert!(ingest.snapshot_loaded, "restart must load the snapshot");
    assert_eq!(
        ingest.wal.as_ref().unwrap().replayed,
        0,
        "log was compacted"
    );
    let response = client
        .roundtrip("POST", "/v1/recommend", recommend_body)
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    assert_eq!(
        response.body, first,
        "the restarted world must serve bit-identical recommendations"
    );
    handle.shutdown();

    // Third life, in process: journal a tail over the snapshot, then
    // drop the app without a drain, as a crash after the last append.
    let config = AppConfig {
        n_users: 60,
        n_items: 40,
        density: 0.3,
        wal_path: Some(wal),
        ..AppConfig::default()
    };
    let probe: RecommendRequest = serde_json::from_str(recommend_body).unwrap();
    let recommend = |app: &ExplainApp| {
        let response = app.recommend(&probe, Deadline::after_ms(60_000)).unwrap();
        serde_json::to_string(&response).unwrap()
    };
    let app = ExplainApp::try_new(config.clone(), Telemetry::default()).unwrap();
    assert!(app.snapshot_loaded());
    for k in 0..16u32 {
        let write = RateRequest {
            user: (k * 977) % 60,
            item: (k * 31) % 40,
            value: Some(f64::from(1 + k % 5)),
            deadline_ms: None,
        };
        app.rate(&write, Deadline::after_ms(60_000)).unwrap();
    }
    let with_tail = recommend(&app);
    drop(app);

    // Fourth life: the snapshot plus the replayed tail is the same world.
    let app = ExplainApp::try_new(config, Telemetry::default()).unwrap();
    assert!(
        app.snapshot_loaded(),
        "the snapshot still precedes the tail"
    );
    assert_eq!(app.wal_stats().unwrap().replayed, 16);
    assert_eq!(
        recommend(&app),
        with_tail,
        "snapshot + tail replay must serve bit-identical recommendations"
    );
}

#[test]
fn restart_over_a_snapshot_of_another_world_is_refused() {
    let wal = temp_wal("reshape");
    let app_config = |n_users: usize, n_items: usize| AppConfig {
        n_users,
        n_items,
        density: 0.3,
        wal_path: Some(wal.clone()),
        ..AppConfig::default()
    };

    // First life on 60 x 40: one journaled write, then a compacting drain.
    {
        let wal = wal.clone();
        let handle = start_server(move |_, app| app.wal_path = Some(wal));
        let mut client = Connection::open(handle.addr()).unwrap();
        let response = client
            .roundtrip(
                "POST",
                "/v1/rate",
                r#"{"user": 3, "item": 7, "value": 5.0}"#,
            )
            .unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        handle.shutdown();
    }
    let snap = exrec_data::wal::snapshot_path(&wal);
    let files = || (std::fs::read(&wal).unwrap(), std::fs::read(&snap).unwrap());
    let before = files();

    // A differently shaped world over the same journal must not start.
    let error = match ExplainApp::try_new(app_config(80, 50), Telemetry::default()) {
        Ok(_) => panic!("an 80 x 50 world started over a 60 x 40 snapshot"),
        Err(e) => e,
    };
    assert!(
        matches!(error, exrec_types::Error::InvalidConfig { .. }),
        "{error}"
    );
    let message = error.to_string();
    assert!(message.contains("80 users x 50 items"), "{message}");
    assert!(message.contains("60 users x 40 items"), "{message}");
    assert!(
        ExplainApp::try_new(app_config(60, 50), Telemetry::default()).is_err(),
        "an item-count mismatch alone is refused too"
    );
    assert_eq!(files(), before, "a refused start leaves the journal alone");

    // The same shape still warm-restarts from the snapshot.
    let app = ExplainApp::try_new(app_config(60, 40), Telemetry::default()).expect("restart");
    assert!(app.snapshot_loaded());
    assert_eq!((app.n_users(), app.n_items()), (60, 40));
    drop(app);
    let _ = std::fs::remove_dir_all(wal.parent().expect("temp dir"));
}
