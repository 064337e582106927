//! # exrec-serve
//!
//! The networked serving edge of the explanation toolkit: a
//! dependency-free (std::net + the workspace's vendored crates)
//! threaded HTTP/1.1 server that puts the explanation pipeline —
//! `Explainer` over a scan-engine `UserKnn`, fanned out through the
//! `exrec_algo::batch` machinery — behind four endpoints:
//!
//! | endpoint            | method | purpose                                  |
//! |---------------------|--------|------------------------------------------|
//! | `/v1/recommend`     | POST   | ranked (optionally explained) top-k      |
//! | `/v1/explain`       | POST   | one `(user, item)` explanation           |
//! | `/healthz`          | GET    | liveness + drain state + queue depth     |
//! | `/metrics`          | GET    | the full `exrec-obs` report as JSON      |
//!
//! The survey's position is that explanation aims are only realized at
//! the point of *delivery*; this crate is that point, so it is built
//! production-shaped rather than as a demo: bounded-queue admission
//! control with 429 load-shedding, per-request deadlines (504),
//! panic-isolated workers (500 without pool loss), keep-alive with idle
//! reaping, graceful drain on shutdown, and counters/histograms for
//! every one of those events through `exrec-obs` — including per-aim
//! explanation counts observed at the edge (`serve.aims.*`).
//!
//! Architecture, wire protocol and tuning guidance: `docs/serving.md`.
//!
//! ```no_run
//! use exrec_obs::Telemetry;
//! use exrec_serve::app::{AppConfig, ExplainApp};
//! use exrec_serve::server::{self, ServerConfig};
//!
//! let telemetry = Telemetry::default();
//! let app = ExplainApp::new(AppConfig::default(), telemetry.clone());
//! let config = ServerConfig {
//!     addr: "127.0.0.1:0".to_owned(),
//!     ..ServerConfig::default()
//! };
//! let handle = server::start(app, config, telemetry).unwrap();
//! println!("serving on {}", handle.addr());
//! handle.shutdown();
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod app;
pub mod client;
pub mod http;
pub mod proto;
pub mod queue;
pub mod server;

pub use app::{AppConfig, Deadline, ExplainApp};
pub use server::{start, ServerConfig, ServerHandle};
