//! Observability core for the explanation pipeline.
//!
//! Recommenders predict, interfaces fire, studies emulate users — and
//! until now none of it left a trace. This crate provides the three
//! primitives the rest of the workspace instruments itself with:
//!
//! * **[`Metrics`]** — a `Send + Sync` registry of named atomic
//!   [`Counter`]s, [`Gauge`]s and fixed-bucket latency [`Histogram`]s
//!   (p50/p95/p99), cheap enough for the predict/explain hot path;
//! * **spans** — [`Telemetry::span`] / the [`span!`] macro time a named
//!   region and deliver a structured [`SpanEvent`] to a pluggable
//!   [`Subscriber`] ([`NoopSubscriber`] by default,
//!   [`JsonLinesSubscriber`] for structured logs);
//! * **[`MetricsReport`]** — a serde-serializable snapshot of every
//!   registered instrument, rendered by `repro` and the `telemetry`
//!   example.
//!
//! On top of those, the request-centric layers:
//!
//! * **tracing** — [`Telemetry::root_span`] starts a request trace
//!   ([`trace::TraceContext`]: 128-bit trace id, span id, parent id);
//!   spans opened beneath it nest into a tree, and
//!   [`trace::current`]/[`trace::install`] carry the context across
//!   thread boundaries (the batch pool does this for its workers);
//! * **tail sampling** — [`trace::TailSamplingSubscriber`] buffers
//!   in-flight traces in a bounded lock-striped ring and flushes only
//!   the slow, errored, or head-sampled ones to the inner subscriber;
//! * **exposition** — [`promtext::render`] exposes the whole registry
//!   as Prometheus text exposition 0.0.4;
//! * **phase profiling** — [`profile::Profiler`] is an always-on
//!   cooperative profiler: scoped RAII [`profile::phase`] guards nest
//!   into a per-route tree with atomic self-time/call-count
//!   aggregation, exported as JSON or collapsed-stack text for
//!   flamegraph tooling;
//! * **flight recording** — [`flight::FlightRecorder`] is the black
//!   box: a bounded lock-striped ring of the last N completed request
//!   records, retained regardless of tail-sampling decisions and
//!   dumped to stderr once per watchdog incident;
//! * **time series** — [`timeseries::TimeSeries`] periodically
//!   snapshots the whole registry into bounded per-series rings:
//!   counters become per-interval rates, histograms become
//!   windowed-delta percentiles (bucket subtraction between
//!   consecutive snapshots), driven cooperatively with no sampler
//!   thread;
//! * **watchdog** — [`watch::Watchdog`] runs EWMA/z-score,
//!   absolute-threshold and error-budget burn detectors over selected
//!   series with hysteresis latches, appending structured
//!   [`watch::Incident`] entries to a bounded incident log and firing
//!   the flight dump once per incident. SLO fast burn and
//!   sustained-low quality are rules like any other; a caught panic is
//!   the one point event.
//!
//! The metric taxonomy (`algo.*`, `explain.*`, `eval.*`, `serve.*`,
//! `trace.*`, `slo.*`, `ts.*`, `watch.*`) and its mapping onto the
//! survey's seven explanation aims are documented in
//! `docs/observability.md`.
//!
//! ```
//! use exrec_obs::{span, Telemetry};
//!
//! let obs = Telemetry::default();
//! let predictions = obs.metrics().counter("algo.predict.user_knn");
//! {
//!     let _span = span!(obs, "predict", model = "user_knn");
//!     predictions.incr();
//! }
//! let report = obs.report();
//! assert_eq!(report.counters["algo.predict.user_knn"], 1);
//! assert_eq!(report.histograms["span_ns.predict"].count, 1);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod flight;
pub mod meta;
pub mod metrics;
pub mod profile;
pub mod promtext;
pub mod quality;
pub mod span;
pub mod timeseries;
pub mod trace;
pub mod watch;

pub use flight::{FlightConfig, FlightRecorder, IngestRecord, RequestRecord};
pub use meta::RunMeta;
pub use metrics::{
    Counter, Gauge, Histogram, HistogramRaw, HistogramSummary, Metrics, MetricsReport,
};
pub use profile::{PhaseCollector, PhaseSnapshot, ProfileReport, Profiler};
pub use quality::{QualityMonitor, QualitySample, QualitySnapshot};
pub use span::{
    CountingSubscriber, JsonLinesSubscriber, NoopSubscriber, SpanEvent, Subscriber, Telemetry,
};
pub use timeseries::{Stat, Tick, TimeSeries, TsConfig, TsSnapshot};
pub use trace::{IdSource, TailConfig, TailSamplingSubscriber, TraceContext};
pub use watch::{Detector, Incident, IncidentLog, Rule, WatchConfig, Watchdog};
