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
//!   [`JsonLinesSubscriber`] for structured logs). Spans are the offline
//!   timer; a served request is accounted for by its flight record;
//! * **[`MetricsReport`]** — a serde-serializable snapshot of every
//!   registered instrument, rendered by `repro` and the `telemetry`
//!   example.
//!
//! On top of those, the request-centric layers:
//!
//! * **request ids** — [`trace::IdSource`] draws each request's
//!   seedable 128-bit trace id, and [`trace::process_start`] is the zero
//!   point of every start offset;
//! * **exposition** — [`promtext::render`] exposes the whole registry
//!   as Prometheus text exposition 0.0.4;
//! * **phase profiling** — scoped RAII [`profile::phase`] guards time
//!   each phase once, into the request's [`profile::PhaseCollector`]
//!   (calls and nanoseconds per phase path);
//!   [`profile::current`]/[`profile::install`] carry a request's
//!   context across threads (the batch pool does this for its
//!   workers). [`profile::Profiler`] is the per-route tree, the sum of
//!   the filed requests' collectors, exported as JSON or
//!   collapsed-stack text for flamegraph tooling;
//! * **flight recording** — [`flight::FlightRecorder`] is the black
//!   box and the request trace: one bounded ring, under one lock, of
//!   the last N completed request records in `seq` order, dumped to
//!   stderr once per watchdog incident; the serving edge also writes
//!   each record that was bad by the SLO to stderr as it completes;
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

/// Recovers a poisoned std lock guard. Every structure behind a lock in
/// this crate is valid after each update (atomics, whole-record pushes,
/// plain sums), so a thread that panicked holding one left nothing half
/// built worth failing the caller over.
macro_rules! lock {
    ($guard:expr) => {
        $guard.unwrap_or_else(|poisoned| poisoned.into_inner())
    };
}

pub mod flight;
pub mod meta;
pub mod metrics;
pub mod profile;
pub mod promtext;
pub mod quality;
mod ring;
pub mod span;
pub mod timeseries;
pub mod trace;
pub mod watch;

pub use flight::{FlightRecorder, IngestRecord, RequestRecord};
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
pub use trace::IdSource;
pub use watch::{Detector, Incident, IncidentLog, Rule, WatchConfig, Watchdog};
