//! Bounded-ring time-series sampling over the metrics registry.
//!
//! Every signal in [`Metrics`] is cumulative-since-start
//! (counters, histogram bucket totals) or last-write-wins (gauges) —
//! fine for "what is the state now", useless for "what changed in the
//! last five minutes". [`TimeSeries`] closes that gap: every
//! `interval_ns` it cuts one snapshot of the whole registry and derives
//! *per-interval* points — counters become rates (delta over elapsed
//! wall time), gauges become sampled values, and histograms become
//! **windowed-delta** digests (per-bucket subtraction between
//! consecutive [`HistogramRaw`] snapshots, summarized by
//! [`HistogramRaw::since`]) — each appended to a bounded ring per
//! series, oldest evicted first.
//!
//! There is no sampler thread. Callers on any request path invoke
//! [`TimeSeries::maybe_sample`], which is two relaxed atomic reads when
//! no tick is due — zero allocation, no lock — and claims the tick by
//! CAS when one is. The serving edge drives it cooperatively from its
//! worker pool (workers tick on queue-pop timeouts and after each
//! connection), so sampling drains with the pool on SIGTERM.
//!
//! Points are stamped with an `epoch` (interval index since process
//! start), so a stall — nobody called in for three intervals — shows up
//! as a gap in the epoch sequence instead of silently stretching the
//! window; rates stay honest because deltas divide by *actual* elapsed
//! time, not the nominal interval.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::metrics::{HistogramRaw, Metrics};
use crate::trace;

/// Wire-schema version stamped into [`TsSnapshot`]; bump on breaking
/// shape changes so pollers such as `obs_top` can refuse mismatches.
pub const TS_SCHEMA: u32 = 1;

/// Tuning for one [`TimeSeries`] engine.
#[derive(Debug, Clone)]
pub struct TsConfig {
    /// Sampling interval in nanoseconds. Each elapsed interval is one
    /// epoch; a tick due-check rounds down to the epoch boundary.
    pub interval_ns: u64,
    /// Points retained per series; the oldest is evicted when full.
    pub retention: usize,
}

impl Default for TsConfig {
    fn default() -> Self {
        TsConfig {
            interval_ns: 5_000_000_000, // 5s
            retention: 120,             // 10 minutes at 5s
        }
    }
}

/// One per-interval point derived from a cumulative counter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RatePoint {
    /// Interval index since process start.
    pub epoch: u64,
    /// Counter increase over the window.
    pub delta: u64,
    /// `delta` divided by the *actual* elapsed seconds since the
    /// previous tick (which may span several epochs if ticks stalled).
    pub rate_per_sec: f64,
}

/// One sampled gauge value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugePoint {
    /// Interval index since process start.
    pub epoch: u64,
    /// Gauge value at the tick.
    pub value: f64,
}

/// One windowed histogram digest: the distribution of samples recorded
/// *during* the interval, via bucket subtraction of consecutive
/// cumulative snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistPoint {
    /// Interval index since process start.
    pub epoch: u64,
    /// Samples recorded in the window.
    pub count: u64,
    /// `count` over actual elapsed seconds.
    pub rate_per_sec: f64,
    /// Mean of the window's samples, nanoseconds.
    pub mean_ns: f64,
    /// Windowed median estimate (bucket upper bound), nanoseconds.
    pub p50_ns: u64,
    /// Windowed 95th percentile, nanoseconds.
    pub p95_ns: u64,
    /// Windowed 99th percentile, nanoseconds.
    pub p99_ns: u64,
}

/// Serializable dump of every retained series — the body of
/// `GET /debug/timeseries`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TsSnapshot {
    /// Wire-schema version ([`TS_SCHEMA`]).
    pub schema: u32,
    /// Sampling interval, nanoseconds.
    pub interval_ns: u64,
    /// Ring capacity per series.
    pub retention: usize,
    /// Ticks taken since start.
    pub ticks: u64,
    /// Counter-derived rate series by metric name.
    pub counters: BTreeMap<String, Vec<RatePoint>>,
    /// Sampled gauge series by metric name.
    pub gauges: BTreeMap<String, Vec<GaugePoint>>,
    /// Windowed histogram series by metric name.
    pub histograms: BTreeMap<String, Vec<HistPoint>>,
}

/// The newest point per series from one tick — handed to the watchdog
/// so detectors see exactly what was just appended.
#[derive(Debug, Clone, PartialEq)]
pub struct Tick {
    /// Interval index of this tick.
    pub epoch: u64,
    /// Process-relative offset of the tick, nanoseconds.
    pub offset_ns: u64,
    /// Newest counter point per series.
    pub counters: BTreeMap<String, RatePoint>,
    /// Newest gauge point per series.
    pub gauges: BTreeMap<String, GaugePoint>,
    /// Newest histogram point per series.
    pub histograms: BTreeMap<String, HistPoint>,
}

/// Which statistic of a series a detector reads from a [`Tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Stat {
    /// Per-second rate (counters and histograms).
    Rate,
    /// Sampled value (gauges).
    Value,
    /// Windowed p50, nanoseconds (histograms).
    P50,
    /// Windowed p99, nanoseconds (histograms).
    P99,
    /// Windowed sample count (histograms).
    Count,
}

impl Tick {
    /// Reads `stat` of the series named `metric`, if present this tick.
    pub fn value(&self, metric: &str, stat: Stat) -> Option<f64> {
        match stat {
            Stat::Value => self.gauges.get(metric).map(|p| p.value),
            Stat::Rate => self
                .counters
                .get(metric)
                .map(|p| p.rate_per_sec)
                .or_else(|| self.histograms.get(metric).map(|p| p.rate_per_sec)),
            Stat::P50 => self.histograms.get(metric).map(|p| p.p50_ns as f64),
            Stat::P99 => self.histograms.get(metric).map(|p| p.p99_ns as f64),
            Stat::Count => self.histograms.get(metric).map(|p| p.count as f64),
        }
    }
}

/// A bounded ring of points.
#[derive(Debug, Clone)]
struct Ring<T> {
    points: VecDeque<T>,
    capacity: usize,
}

impl<T: Clone> Ring<T> {
    fn new(capacity: usize) -> Self {
        Ring {
            points: VecDeque::with_capacity(capacity.min(1024)),
            capacity: capacity.max(1),
        }
    }

    fn push(&mut self, point: T) {
        if self.points.len() == self.capacity {
            self.points.pop_front();
        }
        self.points.push_back(point);
    }

    fn to_vec(&self) -> Vec<T> {
        self.points.iter().cloned().collect()
    }
}

/// Mutable sampling state, touched only while holding the tick claim.
#[derive(Debug, Default)]
struct TsState {
    /// Offset of the previous tick, for actual-elapsed rate math.
    last_offset_ns: Option<u64>,
    /// Previous cumulative counter values.
    prev_counters: BTreeMap<String, u64>,
    /// Previous cumulative histogram snapshots.
    prev_hists: BTreeMap<String, HistogramRaw>,
    counters: BTreeMap<String, Ring<RatePoint>>,
    gauges: BTreeMap<String, Ring<GaugePoint>>,
    histograms: BTreeMap<String, Ring<HistPoint>>,
    ticks: u64,
}

/// The sampling engine. Share behind an `Arc`; see the module docs for
/// the cooperative driving model.
#[derive(Debug)]
pub struct TimeSeries {
    config: TsConfig,
    /// Process-relative offset (ns) at which the next tick is due. A
    /// due-check is one relaxed load; claiming the tick is one CAS.
    next_due_ns: AtomicU64,
    state: Mutex<TsState>,
}

/// Recovers a poisoned guard; ring state is always structurally valid.
macro_rules! lock {
    ($guard:expr) => {
        $guard.unwrap_or_else(|poisoned| poisoned.into_inner())
    };
}

impl TimeSeries {
    /// A fresh engine; the first tick is due one interval from now.
    pub fn new(config: TsConfig) -> Self {
        let interval = config.interval_ns.max(1);
        let now = trace::process_offset_ns();
        TimeSeries {
            next_due_ns: AtomicU64::new(now.saturating_add(interval)),
            config: TsConfig {
                interval_ns: interval,
                retention: config.retention.max(1),
            },
            state: Mutex::new(TsState::default()),
        }
    }

    /// The engine's tuning.
    pub fn config(&self) -> &TsConfig {
        &self.config
    }

    /// Whether a tick is due — one relaxed load, no allocation. Lets
    /// callers skip pre-tick work (derived-gauge refreshes) cheaply.
    pub fn due(&self) -> bool {
        trace::process_offset_ns() >= self.next_due_ns.load(Ordering::Relaxed)
    }

    /// Takes a tick if one is due, claiming it by CAS so exactly one of
    /// any number of concurrent callers samples. Returns the tick's
    /// newest points when this caller won, `None` otherwise. The
    /// not-due path is two relaxed atomic reads and nothing else.
    pub fn maybe_sample(&self, metrics: &Metrics) -> Option<Tick> {
        self.maybe_sample_at(metrics, trace::process_offset_ns())
    }

    /// [`TimeSeries::maybe_sample`] against an explicit clock, for
    /// deterministic tests.
    pub fn maybe_sample_at(&self, metrics: &Metrics, offset_ns: u64) -> Option<Tick> {
        let due = self.next_due_ns.load(Ordering::Relaxed);
        if offset_ns < due {
            return None;
        }
        // Next deadline is the first epoch boundary after `offset_ns`,
        // so a stalled sampler skips epochs rather than replaying them.
        let interval = self.config.interval_ns;
        let next = (offset_ns / interval + 1).saturating_mul(interval);
        if self
            .next_due_ns
            .compare_exchange(due, next, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return None;
        }
        Some(self.sample_at(metrics, offset_ns))
    }

    /// Cuts one sample unconditionally (tests and forced flushes); the
    /// cooperative entry point is [`TimeSeries::maybe_sample`].
    pub fn sample_at(&self, metrics: &Metrics, offset_ns: u64) -> Tick {
        let epoch = offset_ns / self.config.interval_ns;
        let report = metrics.report();
        let raw_hists = metrics.histograms_raw();
        let mut state = lock!(self.state.lock());
        let elapsed_ns = match state.last_offset_ns {
            Some(prev) => offset_ns.saturating_sub(prev).max(1),
            // First tick: the window is everything since process start.
            None => offset_ns.max(1),
        };
        let elapsed_secs = elapsed_ns as f64 / 1e9;
        state.last_offset_ns = Some(offset_ns);
        state.ticks += 1;

        let mut tick = Tick {
            epoch,
            offset_ns,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        };

        let retention = self.config.retention;
        for (name, value) in &report.counters {
            let prev = state.prev_counters.insert(name.clone(), *value);
            let delta = value.saturating_sub(prev.unwrap_or(0));
            let point = RatePoint {
                epoch,
                delta,
                rate_per_sec: delta as f64 / elapsed_secs,
            };
            state
                .counters
                .entry(name.clone())
                .or_insert_with(|| Ring::new(retention))
                .push(point.clone());
            tick.counters.insert(name.clone(), point);
        }
        for (name, value) in &report.gauges {
            let point = GaugePoint {
                epoch,
                value: *value,
            };
            state
                .gauges
                .entry(name.clone())
                .or_insert_with(|| Ring::new(retention))
                .push(point.clone());
            tick.gauges.insert(name.clone(), point);
        }
        for (name, raw) in raw_hists {
            let window = match state.prev_hists.get(&name) {
                Some(prev) => raw.since(prev),
                None => raw.since(&HistogramRaw {
                    buckets: Vec::new(),
                    count: 0,
                    sum_ns: 0,
                }),
            };
            let point = HistPoint {
                epoch,
                count: window.count,
                rate_per_sec: window.count as f64 / elapsed_secs,
                mean_ns: window.mean_ns,
                p50_ns: window.p50_ns,
                p95_ns: window.p95_ns,
                p99_ns: window.p99_ns,
            };
            state
                .histograms
                .entry(name.clone())
                .or_insert_with(|| Ring::new(retention))
                .push(point.clone());
            tick.histograms.insert(name.clone(), point);
            state.prev_hists.insert(name, raw);
        }
        let series = state.counters.len() + state.gauges.len() + state.histograms.len();
        drop(state);
        // Self-describing families: visible in /metrics and — one tick
        // later — in the series map itself.
        metrics.counter("ts.ticks").incr();
        metrics.gauge("ts.series").set(series as f64);
        tick
    }

    /// Dumps every retained series.
    pub fn snapshot(&self) -> TsSnapshot {
        let state = lock!(self.state.lock());
        TsSnapshot {
            schema: TS_SCHEMA,
            interval_ns: self.config.interval_ns,
            retention: self.config.retention,
            ticks: state.ticks,
            counters: state
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.to_vec()))
                .collect(),
            gauges: state
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.to_vec()))
                .collect(),
            histograms: state
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.to_vec()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(interval_ns: u64, retention: usize) -> TimeSeries {
        TimeSeries::new(TsConfig {
            interval_ns,
            retention,
        })
    }

    #[test]
    fn counters_become_rates_over_actual_elapsed_time() {
        let m = Metrics::new();
        let ts = engine(1_000_000_000, 16);
        m.counter("req").add(100);
        ts.sample_at(&m, 1_000_000_000);
        m.counter("req").add(50);
        // The next tick lands 2s later (one epoch skipped): rate must
        // divide by actual elapsed, and the epoch gap must be visible.
        ts.sample_at(&m, 3_000_000_000);
        let snap = ts.snapshot();
        let series = &snap.counters["req"];
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].epoch, 1);
        assert_eq!(series[1].epoch, 3);
        assert_eq!(series[1].delta, 50);
        assert!((series[1].rate_per_sec - 25.0).abs() < 1e-9);
    }

    #[test]
    fn histograms_report_windowed_percentiles_not_cumulative() {
        let m = Metrics::new();
        let ts = engine(1_000_000_000, 16);
        let h = m.histogram("lat");
        for _ in 0..1000 {
            h.record_ns(100); // fast regime
        }
        ts.sample_at(&m, 1_000_000_000);
        for _ in 0..10 {
            h.record_ns(1_000_000); // slow regime, tiny sample count
        }
        ts.sample_at(&m, 2_000_000_000);
        let snap = ts.snapshot();
        let series = &snap.histograms["lat"];
        assert_eq!(series[1].count, 10, "window counts only new samples");
        // Cumulatively p50 would still sit in the fast bucket; the
        // windowed p50 must see only the slow regime.
        assert!(
            series[1].p50_ns >= 1_000_000,
            "windowed p50 {} must reflect the regression",
            series[1].p50_ns
        );
        assert!(series[0].p50_ns <= 128);
    }

    #[test]
    fn ring_evicts_oldest_at_retention() {
        let m = Metrics::new();
        let ts = engine(1_000_000_000, 3);
        let c = m.counter("x");
        for i in 1..=10u64 {
            c.incr();
            ts.sample_at(&m, i * 1_000_000_000);
        }
        let series = &ts.snapshot().counters["x"];
        assert_eq!(series.len(), 3);
        assert_eq!(
            series.iter().map(|p| p.epoch).collect::<Vec<_>>(),
            vec![8, 9, 10]
        );
    }

    #[test]
    fn cas_claim_admits_exactly_one_tick_per_due() {
        let m = Metrics::new();
        m.counter("x").incr();
        let ts = engine(1_000_000_000, 8);
        assert!(ts.maybe_sample_at(&m, 500_000_000).is_none(), "not due");
        assert!(ts.maybe_sample_at(&m, 1_100_000_000).is_some());
        assert!(
            ts.maybe_sample_at(&m, 1_100_000_000).is_none(),
            "same due already claimed"
        );
        assert!(ts.maybe_sample_at(&m, 2_000_000_000).is_some());
        assert_eq!(ts.snapshot().ticks, 2);
    }

    #[test]
    fn tick_value_lookup_reads_every_stat() {
        let m = Metrics::new();
        m.counter("c").add(10);
        m.gauge("g").set(0.5);
        m.histogram("h").record_ns(1000);
        let ts = engine(1_000_000_000, 8);
        let tick = ts.sample_at(&m, 2_000_000_000);
        assert_eq!(tick.value("c", Stat::Rate), Some(5.0));
        assert_eq!(tick.value("g", Stat::Value), Some(0.5));
        assert_eq!(tick.value("h", Stat::Count), Some(1.0));
        assert!(tick.value("h", Stat::P99).unwrap() >= 1000.0);
        assert!(tick.value("h", Stat::Rate).is_some());
        assert_eq!(tick.value("missing", Stat::Value), None);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let m = Metrics::new();
        m.counter("c").incr();
        m.gauge("g").set(1.0);
        m.histogram("h").record_ns(10);
        let ts = engine(1_000_000_000, 4);
        ts.sample_at(&m, 1_000_000_000);
        let snap = ts.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: TsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.schema, TS_SCHEMA);
    }
}
