//! Span tracing: named, timed regions with key/value fields, delivered
//! to a pluggable [`Subscriber`].
//!
//! A span is opened with [`Telemetry::span`] (or the `span!` macro,
//! which adds fields ergonomically) and reports on drop: duration goes
//! into the metrics histogram `span_ns.<name>` and a structured
//! [`SpanEvent`] goes to the subscriber. The default [`NoopSubscriber`]
//! reduces tracing to two atomic increments per span, cheap enough for
//! the predict/explain hot path; [`JsonLinesSubscriber`] writes one JSON
//! object per line for offline analysis.
//!
//! Every event carries `start_offset_ns` — monotonic nanoseconds from
//! the process zero point ([`crate::trace::process_start`]) — so JSON
//! lines order into a timeline. Spans are the offline timer (studies,
//! explainers, benchmarks); a served request's own account is its
//! flight record ([`crate::flight`]), so the serving edge opens none.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::metrics::{Metrics, MetricsReport};
use crate::trace;

/// A finished span, as delivered to subscribers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// Span name, e.g. `"explain"`.
    pub name: String,
    /// Key/value annotations attached at open time.
    pub fields: Vec<(String, String)>,
    /// Wall-clock duration in nanoseconds.
    pub elapsed_ns: u64,
    /// Monotonic start time, nanoseconds from the process zero point.
    pub start_offset_ns: u64,
}

/// Receives finished spans. Implementations must be cheap or buffered:
/// the callback runs synchronously on the instrumented thread.
pub trait Subscriber: Send + Sync {
    /// Called once per finished span.
    fn on_span(&self, event: &SpanEvent);
}

/// Discards every event. The default subscriber.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSubscriber;

impl Subscriber for NoopSubscriber {
    fn on_span(&self, _event: &SpanEvent) {}
}

/// Writes each span as one JSON object per line to a writer.
pub struct JsonLinesSubscriber<W: Write + Send> {
    writer: Mutex<W>,
}

impl<W: Write + Send> JsonLinesSubscriber<W> {
    /// Wraps a writer (file, `Vec<u8>`, stderr lock, ...).
    pub fn new(writer: W) -> Self {
        JsonLinesSubscriber {
            writer: Mutex::new(writer),
        }
    }

    /// Unwraps the writer, flushing buffered lines.
    pub fn into_inner(self) -> W {
        lock!(self.writer.into_inner())
    }

    /// Clones the writer's current state — e.g. the bytes accumulated in
    /// a `Vec<u8>` sink — without detaching the subscriber.
    pub fn snapshot(&self) -> W
    where
        W: Clone,
    {
        lock!(self.writer.lock()).clone()
    }
}

impl<W: Write + Send> Subscriber for JsonLinesSubscriber<W> {
    fn on_span(&self, event: &SpanEvent) {
        let line = serde_json::to_string(event).unwrap_or_default();
        let mut w = lock!(self.writer.lock());
        // Telemetry must never take the pipeline down with it: a full
        // disk or closed pipe drops the event, not the recommendation.
        let _ = writeln!(w, "{line}");
    }
}

/// Counts spans by name; handy for tests and cheap aggregate tracing.
#[derive(Debug, Default)]
pub struct CountingSubscriber {
    events: Mutex<Vec<SpanEvent>>,
}

impl CountingSubscriber {
    /// A fresh collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// All events seen so far.
    pub fn events(&self) -> Vec<SpanEvent> {
        lock!(self.events.lock()).clone()
    }
}

impl Subscriber for CountingSubscriber {
    fn on_span(&self, event: &SpanEvent) {
        lock!(self.events.lock()).push(event.clone());
    }
}

/// The observability bundle threaded through the pipeline: a shared
/// [`Metrics`] registry plus the active [`Subscriber`].
///
/// Cloning shares both. `Telemetry::default()` is a fresh registry with
/// the noop subscriber — safe to construct anywhere, including library
/// code that may run without any observer attached.
#[derive(Clone)]
pub struct Telemetry {
    metrics: Arc<Metrics>,
    subscriber: Arc<dyn Subscriber>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").finish_non_exhaustive()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry {
            metrics: Arc::new(Metrics::new()),
            subscriber: Arc::new(NoopSubscriber),
        }
    }
}

impl Telemetry {
    /// Bundles an existing registry with a subscriber.
    pub fn new(metrics: Arc<Metrics>, subscriber: Arc<dyn Subscriber>) -> Self {
        Telemetry {
            metrics,
            subscriber,
        }
    }

    /// A fresh registry observed by `subscriber`.
    pub fn with_subscriber(subscriber: Arc<dyn Subscriber>) -> Self {
        Telemetry::new(Arc::new(Metrics::new()), subscriber)
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Snapshot of every registered metric.
    pub fn report(&self) -> MetricsReport {
        self.metrics.report()
    }

    /// Opens a timed span; it reports when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        SpanGuard {
            telemetry: self,
            name,
            fields: Vec::new(),
            started: Instant::now(),
        }
    }
}

/// Live span handle. Records duration and notifies the subscriber on
/// drop.
#[derive(Debug)]
pub struct SpanGuard<'t> {
    telemetry: &'t Telemetry,
    name: &'static str,
    fields: Vec<(String, String)>,
    started: Instant,
}

impl SpanGuard<'_> {
    /// Attaches a key/value annotation.
    pub fn field(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        self.fields.push((key.to_owned(), value.to_string()));
        self
    }

    /// Backdates the span's start, for reporting a region that was
    /// already timed externally (the guard then covers `started..drop`).
    pub fn started_at(mut self, started: Instant) -> Self {
        self.started = started;
        self
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let elapsed = self.started.elapsed();
        self.telemetry
            .metrics
            .histogram(&format!("span_ns.{}", self.name))
            .record(elapsed);
        let event = SpanEvent {
            name: self.name.to_owned(),
            fields: std::mem::take(&mut self.fields),
            elapsed_ns: trace::duration_ns(elapsed),
            start_offset_ns: trace::offset_ns_of(self.started),
        };
        self.telemetry.subscriber.on_span(&event);
    }
}

/// Opens a span on a [`Telemetry`] handle with optional fields:
///
/// ```
/// use exrec_obs::{span, Telemetry};
/// let obs = Telemetry::default();
/// {
///     let _span = span!(obs, "explain", interface = "top_n", user = 3);
///     // ... timed work ...
/// }
/// assert_eq!(obs.report().histograms["span_ns.explain"].count, 1);
/// ```
#[macro_export]
macro_rules! span {
    ($telemetry:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {{
        #[allow(unused_mut)]
        let mut guard = $telemetry.span($name);
        $(let guard = guard.field(stringify!($key), $value);)*
        guard
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_histogram_and_event() {
        let collector = Arc::new(CountingSubscriber::new());
        let obs = Telemetry::with_subscriber(Arc::clone(&collector) as Arc<dyn Subscriber>);
        {
            let _span = span!(obs, "explain", interface = "top_n", user = 7);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let events = collector.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "explain");
        assert_eq!(
            events[0].fields,
            vec![
                ("interface".to_owned(), "top_n".to_owned()),
                ("user".to_owned(), "7".to_owned()),
            ]
        );
        assert!(events[0].elapsed_ns >= 1_000_000);
        let report = obs.report();
        assert_eq!(report.histograms["span_ns.explain"].count, 1);
    }

    #[test]
    fn json_lines_subscriber_writes_one_line_per_span() {
        let shared = Arc::new(JsonLinesSubscriber::new(Vec::new()));
        let obs = Telemetry::new(
            Arc::new(Metrics::new()),
            Arc::clone(&shared) as Arc<dyn Subscriber>,
        );
        for i in 0..3 {
            let _span = span!(obs, "predict", model = "user_knn", item = i);
        }
        let text = String::from_utf8(shared.snapshot()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            let event: SpanEvent = serde_json::from_str(line).unwrap();
            assert_eq!(event.name, "predict");
            assert_eq!(event.fields[1], ("item".to_owned(), i.to_string()));
        }
    }

    #[test]
    fn noop_subscriber_still_feeds_metrics() {
        let obs = Telemetry::default();
        for _ in 0..10 {
            let _span = obs.span("cheap");
        }
        assert_eq!(obs.report().histograms["span_ns.cheap"].count, 10);
    }

    #[test]
    fn telemetry_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Telemetry>();
        assert_send_sync::<Metrics>();
    }

    #[test]
    fn spans_carry_start_offsets_that_order_a_timeline() {
        let collector = Arc::new(CountingSubscriber::new());
        let obs = Telemetry::with_subscriber(Arc::clone(&collector) as Arc<dyn Subscriber>);
        let before = trace::process_offset_ns();
        {
            let _a = obs.span("first");
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
        {
            let _b = obs.span("second");
        }
        let events = collector.events();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.start_offset_ns >= before));
        assert!(
            events[1].start_offset_ns > events[0].start_offset_ns,
            "offsets order the timeline: {} !> {}",
            events[1].start_offset_ns,
            events[0].start_offset_ns
        );
    }

    #[test]
    fn json_lines_snapshot_observes_live_state() {
        let shared = Arc::new(JsonLinesSubscriber::new(Vec::new()));
        let obs = Telemetry::new(
            Arc::new(Metrics::new()),
            Arc::clone(&shared) as Arc<dyn Subscriber>,
        );
        assert!(shared.snapshot().is_empty(), "fresh sink starts empty");
        {
            let _span = obs.span("one");
        }
        let first = shared.snapshot();
        assert_eq!(String::from_utf8(first).unwrap().lines().count(), 1);
        {
            let _span = obs.span("two");
        }
        // The earlier snapshot was a copy: the live sink kept growing.
        assert_eq!(
            String::from_utf8(shared.snapshot())
                .unwrap()
                .lines()
                .count(),
            2
        );
    }

    #[test]
    fn json_lines_subscriber_survives_poisoned_lock() {
        let shared = Arc::new(JsonLinesSubscriber::new(Vec::new()));
        // Poison the writer lock by panicking while holding it.
        let poisoner = Arc::clone(&shared);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.writer.lock().unwrap();
            panic!("poison the writer");
        })
        .join();
        // All three accessors must shrug the poison off.
        let event = SpanEvent {
            name: "after_poison".to_owned(),
            fields: Vec::new(),
            elapsed_ns: 1,
            start_offset_ns: 0,
        };
        shared.on_span(&event);
        let text = String::from_utf8(shared.snapshot()).unwrap();
        assert!(text.contains("after_poison"));
        let inner = Arc::try_unwrap(shared)
            .unwrap_or_else(|_| panic!("sole owner"))
            .into_inner();
        assert!(String::from_utf8(inner).unwrap().contains("after_poison"));
    }
}
