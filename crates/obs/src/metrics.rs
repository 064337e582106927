//! Lock-free metric instruments and the registry that names them.
//!
//! The hot path — a recommender predicting, an interface firing — touches
//! only pre-registered [`Counter`]/[`Histogram`] handles, each a couple of
//! relaxed atomic operations. The registry's internal lock is taken only
//! when a metric is first named or a [`MetricsReport`] snapshot is cut.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Number of power-of-two latency buckets. Bucket `i` holds samples in
/// `[2^(i-1), 2^i)` nanoseconds; the last bucket absorbs everything
/// above `2^41` ns (~37 minutes).
pub const N_BUCKETS: usize = 42;

/// Values above this saturate into the top bucket. The clamp bounds each
/// individual sample; the running sum saturates separately (see
/// [`Histogram::record_ns`]) so it cannot wrap either.
pub const MAX_TRACKED_NS: u64 = 1 << (N_BUCKETS - 1);

/// A monotonically increasing event count.
///
/// Cloning is cheap and every clone addresses the same underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`, saturating at `u64::MAX` instead of wrapping.
    pub fn add(&self, n: u64) {
        let prev = self.0.fetch_add(n, Ordering::Relaxed);
        if prev.checked_add(n).is_none() {
            self.0.store(u64::MAX, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point measurement (throughput, sizes).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Replaces the value.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` atomically (CAS loop over the f64 bit pattern), so
    /// occupancy-style gauges can track +1/-1 transitions from many
    /// threads without recomputing the absolute value under a lock.
    pub fn add(&self, delta: f64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + delta).to_bits())
            });
    }

    /// Subtracts `delta` atomically; see [`Gauge::add`].
    pub fn sub(&self, delta: f64) {
        self.add(-delta);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket latency histogram over nanoseconds.
///
/// Bucket boundaries are powers of two, so recording is one
/// `leading_zeros` plus one relaxed increment. Quantiles are estimated
/// from the cumulative bucket counts, answering with the upper bound of
/// the bucket containing the requested rank — a ≤2× overestimate by
/// construction, which is the right bias for latency budgets.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

/// The bucket index a nanosecond value lands in.
fn bucket_of(ns: u64) -> usize {
    ((64 - ns.leading_zeros()) as usize).min(N_BUCKETS - 1)
}

/// Upper bound (ns) of bucket `i`.
fn bucket_bound(i: usize) -> u64 {
    1u64 << i
}

/// Upper bound (ns) of bucket `i`, for renderers that need the raw
/// bucket grid (e.g. Prometheus exposition).
pub fn bucket_upper_bound(i: usize) -> u64 {
    bucket_bound(i.min(N_BUCKETS - 1))
}

/// Raw per-bucket snapshot of one histogram, for renderers that need
/// the full distribution rather than a digest (Prometheus exposition
/// emits cumulative buckets). The default is the empty histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramRaw {
    /// Per-bucket sample counts; bucket `i` spans `[2^(i-1), 2^i)` ns.
    pub buckets: Vec<u64>,
    /// Total samples (sum of `buckets`, cut from the same snapshot).
    pub count: u64,
    /// Running sum of recorded nanoseconds.
    pub sum_ns: u64,
}

impl Histogram {
    /// Records one sample, saturating above [`MAX_TRACKED_NS`]. The sum
    /// accumulator saturates at `u64::MAX` rather than wrapping, so the
    /// reported mean degrades to an underestimate instead of garbage
    /// after ~4M max-sized samples.
    pub fn record_ns(&self, ns: u64) {
        let ns = ns.min(MAX_TRACKED_NS);
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let prev = self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        if prev.checked_add(ns).is_none() {
            self.sum_ns.store(u64::MAX, Ordering::Relaxed);
        }
    }

    /// Records a [`Duration`] sample.
    pub fn record(&self, elapsed: Duration) {
        self.record_ns(crate::trace::duration_ns(elapsed));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Cuts a raw per-bucket snapshot. `count` is derived from the
    /// bucket loads so the snapshot is internally consistent under
    /// concurrent writers.
    pub fn raw(&self) -> HistogramRaw {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        HistogramRaw {
            buckets,
            count,
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }

    /// Cuts a consistent-enough summary: the digest of a [`raw`]
    /// snapshot taken since an empty one. Concurrent writers may add
    /// samples mid-snapshot; every load is atomic so no value is torn,
    /// and quantile ranks are computed against the bucket total rather
    /// than the sample counter so they stay internally consistent.
    ///
    /// [`raw`]: Histogram::raw
    pub fn summarize(&self) -> HistogramSummary {
        self.raw().since(&HistogramRaw::default())
    }
}

impl HistogramRaw {
    /// Summarizes the *window* between an earlier cumulative snapshot of
    /// the same histogram and this one, by per-bucket subtraction. The
    /// result is exactly what [`Histogram::summarize`] would report for
    /// a histogram that recorded only the samples landing between the
    /// two snapshots — the primitive behind windowed time-series
    /// percentiles. Subtraction saturates, so a reset (or mismatched)
    /// predecessor degrades to treating this snapshot as the window.
    pub fn since(&self, prev: &HistogramRaw) -> HistogramSummary {
        let n = self.buckets.len();
        let delta: Vec<u64> = (0..n)
            .map(|i| {
                let before = prev.buckets.get(i).copied().unwrap_or(0);
                self.buckets[i].saturating_sub(before)
            })
            .collect();
        let total: u64 = delta.iter().sum();
        let sum_ns = self.sum_ns.saturating_sub(prev.sum_ns);
        let quantile = |q: f64| -> u64 {
            if total == 0 {
                return 0;
            }
            let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
            let mut seen = 0;
            for (i, &c) in delta.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_bound(i);
                }
            }
            bucket_bound(N_BUCKETS - 1)
        };
        HistogramSummary {
            count: total,
            mean_ns: if total == 0 {
                0.0
            } else {
                sum_ns as f64 / total as f64
            },
            p50_ns: quantile(0.50),
            p95_ns: quantile(0.95),
            p99_ns: quantile(0.99),
        }
    }
}

/// Point-in-time digest of one histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean in nanoseconds.
    pub mean_ns: f64,
    /// Median estimate (bucket upper bound), nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile estimate, nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile estimate, nanoseconds.
    pub p99_ns: u64,
}

/// Registry mapping metric names to live instruments.
///
/// `Send + Sync`; share it behind an `Arc`. Instrument lookup interns the
/// name once — hold the returned handle in hot code rather than
/// re-resolving per event.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl Metrics {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        intern(&self.counters, name)
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        intern(&self.gauges, name)
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        intern(&self.histograms, name)
    }

    /// Raw per-bucket snapshots of every registered histogram, keyed by
    /// name — the input to the Prometheus exposition renderer.
    pub fn histograms_raw(&self) -> BTreeMap<String, HistogramRaw> {
        lock!(self.histograms.read())
            .iter()
            .map(|(k, v)| (k.clone(), v.raw()))
            .collect()
    }

    /// Cuts a serializable snapshot of every registered instrument.
    pub fn report(&self) -> MetricsReport {
        MetricsReport {
            counters: lock!(self.counters.read())
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: lock!(self.gauges.read())
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: lock!(self.histograms.read())
                .iter()
                .map(|(k, v)| (k.clone(), v.summarize()))
                .collect(),
        }
    }
}

/// The instrument named `name` in `registry`, created on first use; a
/// handle to the same cell every time.
fn intern<T: Clone + Default>(registry: &RwLock<BTreeMap<String, T>>, name: &str) -> T {
    if let Some(found) = lock!(registry.read()).get(name) {
        return found.clone();
    }
    lock!(registry.write())
        .entry(name.to_owned())
        .or_default()
        .clone()
}

/// Serializable snapshot of a [`Metrics`] registry.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram digests by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

/// Renders nanoseconds with a human unit.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

impl MetricsReport {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Plain-text rendering for terminals and logs.
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        out.push_str("== telemetry ==\n");
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<44} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                out.push_str(&format!("  {name:<44} {v:.2}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "  {name:<44} n={} mean={} p50={} p95={} p99={}\n",
                    h.count,
                    fmt_ns(h.mean_ns),
                    fmt_ns(h.p50_ns as f64),
                    fmt_ns(h.p95_ns as f64),
                    fmt_ns(h.p99_ns as f64),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_counts_and_saturates() {
        let m = Metrics::new();
        let c = m.counter("hits");
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
        assert_eq!(m.counter("hits").get(), 42, "same name, same cell");
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX, "saturates instead of wrapping");
    }

    #[test]
    fn gauge_last_write_wins() {
        let g = Metrics::new().gauge("throughput");
        g.set(12.5);
        g.set(-3.25);
        assert_eq!(g.get(), -3.25);
    }

    #[test]
    fn gauge_add_sub_is_atomic_across_threads() {
        let m = Arc::new(Metrics::new());
        m.gauge("occupancy").set(0.0);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    let g = m.gauge("occupancy");
                    for _ in 0..2_000 {
                        g.add(1.0);
                        g.sub(1.0);
                    }
                    g.add(3.5);
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        assert_eq!(m.gauge("occupancy").get(), 8.0 * 3.5);
    }

    #[test]
    fn raw_delta_summary_equals_direct_recording() {
        // Record a prefix, snapshot, record a suffix, snapshot: the
        // windowed summary of the two cumulative snapshots must match a
        // histogram that recorded only the suffix.
        let cumulative = Histogram::default();
        let direct = Histogram::default();
        for ns in [100u64, 9_000, 250_000] {
            cumulative.record_ns(ns);
        }
        let before = cumulative.raw();
        for ns in [700u64, 700, 1_000_000, 42] {
            cumulative.record_ns(ns);
            direct.record_ns(ns);
        }
        assert_eq!(cumulative.raw().since(&before), direct.summarize());
        // Empty window: zeros, not NaNs.
        let after = cumulative.raw();
        let idle = after.since(&after);
        assert_eq!((idle.count, idle.mean_ns, idle.p99_ns), (0, 0.0, 0));
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // 2^k lands in the bucket whose upper bound is 2^(k+1): bounds
        // are half-open [2^(i-1), 2^i).
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of((1 << 20) - 1), 20);
        assert_eq!(bucket_of(1 << 20), 21);
        assert_eq!(bucket_of(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_order_and_bound() {
        let h = Histogram::default();
        for ns in [100u64, 200, 400, 800, 100_000] {
            h.record_ns(ns);
        }
        let s = h.summarize();
        assert_eq!(s.count, 5);
        assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns);
        // Quantile answers are bucket upper bounds: within 2× above the
        // true value, never below it.
        assert!(s.p50_ns >= 400 && s.p50_ns <= 800);
        assert!(s.p99_ns >= 100_000 && s.p99_ns <= 262_144);
        assert!((s.mean_ns - 20_300.0).abs() < 1.0);
    }

    #[test]
    fn histogram_saturates_oversized_samples() {
        let h = Histogram::default();
        h.record_ns(u64::MAX);
        h.record_ns(u64::MAX);
        let s = h.summarize();
        assert_eq!(s.count, 2);
        // The clamp keeps the sum accumulator from wrapping.
        assert!((s.mean_ns - MAX_TRACKED_NS as f64).abs() < 1.0);
        assert_eq!(s.p99_ns, bucket_bound(N_BUCKETS - 1));
    }

    #[test]
    fn empty_histogram_summarizes_to_zeros() {
        let s = Histogram::default().summarize();
        assert_eq!(
            (s.count, s.mean_ns, s.p50_ns, s.p95_ns, s.p99_ns),
            (0, 0.0, 0, 0, 0)
        );
    }

    #[test]
    fn multithreaded_updates_lose_nothing() {
        let m = Arc::new(Metrics::new());
        let threads = 8;
        let per_thread = 5_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    let c = m.counter("shared");
                    let h = m.histogram("lat");
                    for i in 0..per_thread {
                        c.incr();
                        h.record_ns(t * 1000 + i);
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        let report = m.report();
        assert_eq!(report.counters["shared"], threads * per_thread);
        assert_eq!(report.histograms["lat"].count, threads * per_thread);
    }

    #[test]
    fn snapshot_while_writing_is_never_torn() {
        let m = Arc::new(Metrics::new());
        let writer = {
            let m = Arc::clone(&m);
            thread::spawn(move || {
                let c = m.counter("busy");
                let h = m.histogram("busy_ns");
                for i in 0..20_000u64 {
                    c.incr();
                    h.record_ns(i % 4096);
                }
            })
        };
        // Snapshots cut mid-write must be monotone and internally sane.
        let mut last = 0u64;
        for _ in 0..50 {
            let r = m.report();
            let c = r.counters.get("busy").copied().unwrap_or(0);
            assert!(c >= last, "counter snapshot went backwards");
            last = c;
            if let Some(h) = r.histograms.get("busy_ns") {
                assert!(h.p50_ns <= h.p99_ns);
                assert!(h.count <= 20_000);
            }
        }
        writer.join().unwrap();
        assert_eq!(m.report().counters["busy"], 20_000);
    }

    #[test]
    fn report_round_trips_through_json() {
        let m = Metrics::new();
        m.counter("a").add(7);
        m.gauge("b").set(2.5);
        m.histogram("c").record_ns(1500);
        let report = m.report();
        let json = serde_json::to_string(&report).unwrap();
        let back: MetricsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn render_ascii_on_empty_report_is_just_the_header() {
        let report = MetricsReport::default();
        assert!(report.is_empty());
        assert_eq!(report.render_ascii(), "== telemetry ==\n");
    }

    #[test]
    fn render_ascii_picks_human_units_per_magnitude() {
        let m = Metrics::new();
        m.histogram("tiny").record_ns(500); // ns
        m.histogram("small").record_ns(5_000); // µs
        m.histogram("medium").record_ns(5_000_000); // ms
        m.histogram("large").record_ns(5_000_000_000); // s
        let text = m.report().render_ascii();
        // Means are exact (single sample each); quantiles round up to
        // the bucket bound, so assert on the mean renderings.
        for needle in ["mean=500ns", "mean=5.00µs", "mean=5.00ms", "mean=5.00s"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn render_ascii_skips_empty_sections() {
        let m = Metrics::new();
        m.counter("only.counter").incr();
        let text = m.report().render_ascii();
        assert!(text.contains("counters:"));
        assert!(!text.contains("gauges:"), "no gauges registered");
        assert!(!text.contains("histograms:"), "no histograms registered");
    }

    #[test]
    fn raw_snapshot_matches_recorded_samples() {
        let h = Histogram::default();
        h.record_ns(3); // bucket 2
        h.record_ns(3); // bucket 2
        h.record_ns(1000); // bucket 10
        let raw = h.raw();
        assert_eq!(raw.count, 3);
        assert_eq!(raw.sum_ns, 1006);
        assert_eq!(raw.buckets.len(), N_BUCKETS);
        assert_eq!(raw.buckets[2], 2);
        assert_eq!(raw.buckets[10], 1);
        assert_eq!(raw.buckets.iter().sum::<u64>(), raw.count);
        let m = Metrics::new();
        m.histogram("lat").record_ns(7);
        assert_eq!(m.histograms_raw()["lat"].count, 1);
        assert_eq!(bucket_upper_bound(3), 8);
        assert_eq!(bucket_upper_bound(usize::MAX), bucket_bound(N_BUCKETS - 1));
    }

    #[test]
    fn ascii_rendering_mentions_every_metric() {
        let m = Metrics::new();
        m.counter("explain.fired.top_n").add(3);
        m.gauge("eval.throughput").set(123.0);
        m.histogram("algo.predict_ns.user_knn").record_ns(40_000);
        let text = m.report().render_ascii();
        for needle in [
            "explain.fired.top_n",
            "eval.throughput",
            "algo.predict_ns.user_knn",
            "p95",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }
}
