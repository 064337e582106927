//! The in-process server the socket-level test files start.

use exrec_obs::Telemetry;
use exrec_serve::app::{AppConfig, ExplainApp};
use exrec_serve::server::{self, ServerConfig, ServerHandle};

/// Starts a server on a free loopback port over a 60 × 40 world, with
/// two workers, a 16-deep admission queue and a 10 s default deadline;
/// `configure` adjusts either config before start-up.
pub fn start_server(
    telemetry: Telemetry,
    configure: impl FnOnce(&mut ServerConfig, &mut AppConfig),
) -> ServerHandle {
    let mut server_config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_bound: 16,
        default_deadline_ms: 10_000,
        ..ServerConfig::default()
    };
    let mut app_config = test_world();
    configure(&mut server_config, &mut app_config);
    let app = ExplainApp::new(app_config, telemetry.clone());
    server::start(app, server_config, telemetry).expect("start server")
}

/// The 60 × 40 world the test server runs unless `configure` changes it.
pub fn test_world() -> AppConfig {
    AppConfig {
        n_users: 60,
        n_items: 40,
        density: 0.3,
        ..AppConfig::default()
    }
}
