//! Anomaly watchdog: detectors over time-series ticks, hysteresis
//! latches, and a bounded incident log unifying every flight-dump
//! trigger.
//!
//! Every standing incident is a **rule**: a [`Detector`] evaluated
//! against each [`Tick`] the time-series engine cuts. **Hysteresis**
//! keeps a rule from flapping (an incident opens only after
//! `trip_after` consecutive anomalous ticks and closes only after
//! `clear_after` consecutive normal ones), and every opening appends a
//! structured [`Incident`] to a bounded [`IncidentLog`] and fires the
//! flight-recorder dump **once per incident** (latched — a regression
//! that stays bad across fifty ticks produces one incident and one
//! dump, not fifty). SLO fast burn is a [`Detector::Burn`] rule per
//! route and sustained-low explanation quality a [`Detector::Below`]
//! rule per interface, so neither keeps state of its own.
//!
//! The one other way into the log is a point event with no duration (a
//! caught panic) through [`Watchdog::event`]. Both paths converge on
//! the same log, the same metrics (`watch.*`), and the same dump
//! budget.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::flight::FlightRecorder;
use crate::metrics::Metrics;
use crate::ring::Ring;
use crate::timeseries::{Stat, Tick};
use crate::trace;

/// Wire-schema version of the incident dump; bump on breaking changes.
pub const WATCH_SCHEMA: u32 = 1;

/// Burn rate at or above which one tick of a route is anomalous: the
/// error budget spent six times as fast as the target allows.
pub const FAST_BURN: f64 = 6.0;

/// Requests a route must serve in one tick before its burn can be
/// anomalous, so one slow request on an idle route cannot page.
pub const BURN_MIN_REQUESTS: u64 = 10;

/// Samples a histogram's tick window must hold before a [`Stat::P99`]
/// rule judges it. The p99 rank is `ceil(0.99 n)`, which is `n` for
/// every `n` below 100, so a smaller window's p99 is its maximum: one
/// slow request would read as drift.
pub const P99_MIN_SAMPLES: u64 = 100;

/// Span of ticks an SLO standing (good, total, burn) is read over.
pub const SLO_WINDOW_NS: u64 = 60_000_000_000;

/// Floor under a [`Detector::ZScore`] rule's standard deviation, as a
/// fraction of its EWMA mean. Histogram percentiles are power-of-two
/// bucket bounds, so the smallest move of a steady p99 is 2×: at a
/// quarter of the mean one bucket up reads z = 4 and two buckets z = 12,
/// either side of the serving edge's default factor of 6.
const ZSCORE_FLOOR: f64 = 0.25;

/// Error-budget burn rate of `bad` out of `total` requests against a
/// `target` good ratio: `(bad / total) / (1 - target)`. Burn 1 spends
/// exactly the budget; an empty window burns nothing.
pub fn burn_rate(bad: u64, total: u64, target: f64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let budget = (1.0 - target).max(f64::EPSILON);
    (bad.min(total) as f64 / total as f64) / budget
}

/// The burn a [`Detector::Burn`] rule judges for one tick: the
/// [`burn_rate`] of the tick's requests, or 0 when the route served
/// fewer than [`BURN_MIN_REQUESTS`] of them.
pub fn tick_burn(bad: u64, total: u64, target: f64) -> f64 {
    if total < BURN_MIN_REQUESTS {
        return 0.0;
    }
    burn_rate(bad, total, target)
}

/// How a rule decides a tick is anomalous.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Detector {
    /// Drift detection: EWMA mean/variance over the series; anomalous
    /// when the sample sits more than `factor` standard deviations
    /// above the running mean. One-sided — only upward drift (latency,
    /// lag) trips. Needs `min_samples` observations of warmup first.
    ZScore {
        /// Trip threshold in standard deviations.
        factor: f64,
        /// Observations before the detector may trip.
        min_samples: u64,
    },
    /// Absolute ceiling: anomalous when `value > max`.
    Above {
        /// Inclusive ceiling the series must stay at or under.
        max: f64,
    },
    /// Absolute floor: anomalous when `value < min`, but only after
    /// the series has been observed at or above the floor at least
    /// `min_samples` times. A collapse needs something to collapse
    /// from: a series that legitimately idles at 0 forever (the prune
    /// ratio in exact mode) never arms the rule and never trips it.
    Below {
        /// Inclusive floor the series must stay at or above.
        min: f64,
        /// Healthy (at-or-above-floor) observations before the
        /// detector may trip.
        min_samples: u64,
    },
    /// Error-budget burn of one route in one tick. The rule's series is
    /// the route's latency histogram, read with [`Stat::Count`] as the
    /// tick's requests; `bad` names the counter of its bad requests.
    /// Anomalous when the route served at least [`BURN_MIN_REQUESTS`]
    /// requests and [`burn_rate`] is at least [`FAST_BURN`]; a quieter
    /// tick reads healthy.
    Burn {
        /// Counter of the route's bad requests.
        bad: String,
        /// Target good ratio; `1 - target` is the error budget.
        target: f64,
    },
}

impl Detector {
    /// Short kind tag used in incident records.
    fn kind(&self) -> &'static str {
        match self {
            Detector::ZScore { .. } => "zscore",
            Detector::Above { .. } => "above",
            Detector::Below { .. } => "below",
            Detector::Burn { .. } => "burn",
        }
    }
}

/// One watched series + detector.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Incident-facing rule name, e.g. `latency_drift.recommend`.
    pub name: String,
    /// Metric (series) name in the registry.
    pub metric: String,
    /// Which statistic of the series to read.
    pub stat: Stat,
    /// The anomaly test.
    pub detector: Detector,
    /// Counter that must move in a tick for the tick to count. A tick
    /// in which it did not is no evidence either way: the rule's
    /// warm-up, streaks and latch stay as they were. This keeps a
    /// gauge that holds its last value between samples from arming or
    /// clearing on idle ticks. `None` judges every tick.
    pub evidence: Option<String>,
}

/// The delta of counter `name` in `tick`, 0 while it is absent.
fn delta(tick: &Tick, name: &str) -> u64 {
    tick.counters.get(name).map_or(0, |p| p.delta)
}

impl Rule {
    /// The value the detector judges in `tick`; `None` while the series
    /// is absent or the tick holds no evidence, which for a p99 is a
    /// window of fewer than [`P99_MIN_SAMPLES`]. A burn rule reads its
    /// route's [`tick_burn`].
    fn read(&self, tick: &Tick) -> Option<f64> {
        if self.evidence.as_ref().is_some_and(|c| delta(tick, c) == 0) {
            return None;
        }
        if self.stat == Stat::P99 && tick.value(&self.metric, Stat::Count)? < P99_MIN_SAMPLES as f64
        {
            return None;
        }
        let value = tick.value(&self.metric, self.stat)?;
        let Detector::Burn { bad, target } = &self.detector else {
            return Some(value);
        };
        Some(tick_burn(delta(tick, bad), value as u64, *target))
    }
}

/// Hysteresis + log tuning.
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Consecutive anomalous ticks before an incident opens.
    pub trip_after: u32,
    /// Consecutive normal ticks before a latched incident closes.
    pub clear_after: u32,
    /// EWMA smoothing factor for [`Detector::ZScore`] (0 < α ≤ 1).
    pub ewma_alpha: f64,
    /// Incidents retained in the bounded log.
    pub log_capacity: usize,
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig {
            trip_after: 2,
            clear_after: 3,
            ewma_alpha: 0.3,
            log_capacity: 64,
        }
    }
}

/// One structured incident, open or closed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Incident {
    /// Monotonic sequence number (1-based) over the process lifetime.
    pub seq: u64,
    /// Rule (or event) name.
    pub rule: String,
    /// Series the rule watched; empty for events.
    pub series: String,
    /// Detector kind: `zscore`/`above`/`below`/`burn`/`event`.
    pub kind: String,
    /// Tick epoch at open (0 for events, which are not epoch-aligned).
    pub opened_epoch: u64,
    /// Process-relative offset at open, nanoseconds.
    pub opened_offset_ns: u64,
    /// Tick epoch at close; `None` while the incident stands.
    pub closed_epoch: Option<u64>,
    /// Observed value at the trip.
    pub value: f64,
    /// Threshold it crossed (z-score for `zscore` rules).
    pub threshold: f64,
    /// Human-readable context.
    pub detail: String,
}

/// Per-rule detector and latch state.
#[derive(Debug, Clone, Default)]
struct RuleState {
    ewma_mean: f64,
    ewma_var: f64,
    samples: u64,
    anomalous_streak: u32,
    normal_streak: u32,
    latched: bool,
    open_seq: u64,
}

/// A bounded append-only incident log: the oldest entry is evicted at
/// capacity, while the `opened` total keeps counting.
#[derive(Debug)]
pub struct IncidentLog {
    incidents: Ring<Incident>,
    opened: u64,
}

impl IncidentLog {
    fn new(capacity: usize) -> Self {
        IncidentLog {
            incidents: Ring::new(capacity),
            opened: 0,
        }
    }

    /// Appends a new incident, evicting the oldest at capacity; returns
    /// the assigned sequence number.
    fn open(&mut self, mut incident: Incident) -> u64 {
        self.opened += 1;
        incident.seq = self.opened;
        self.incidents.push(incident);
        self.opened
    }

    /// Marks incident `seq` closed if it is still retained.
    fn close(&mut self, seq: u64, epoch: u64) {
        if let Some(incident) = self.incidents.iter_mut().find(|i| i.seq == seq) {
            incident.closed_epoch = Some(epoch);
        }
    }

    /// Retained incidents, oldest first.
    pub fn entries(&self) -> Vec<Incident> {
        self.incidents.to_vec()
    }

    /// Total incidents ever opened (including evicted ones).
    pub fn opened(&self) -> u64 {
        self.opened
    }
}

/// Everything behind the watchdog's one mutex.
#[derive(Debug)]
struct WatchState {
    rules: Vec<RuleState>,
    log: IncidentLog,
}

/// The watchdog. Construct with [`Watchdog::new`], attach the flight
/// recorder with [`Watchdog::with_flight`], then feed it ticks via
/// [`Watchdog::observe`]. Cheap when nothing changes: one mutex, no
/// allocation unless an incident opens or closes.
#[derive(Debug)]
pub struct Watchdog {
    config: WatchConfig,
    rules: Vec<Rule>,
    state: Mutex<WatchState>,
    flight: Option<Arc<FlightRecorder>>,
    flight_dumps: AtomicU64,
    metrics: Option<WatchMetrics>,
}

/// Pre-registered `watch.*` handles.
#[derive(Debug, Clone)]
struct WatchMetrics {
    incidents: crate::metrics::Counter,
    active: crate::metrics::Gauge,
    dumps: crate::metrics::Counter,
}

impl Watchdog {
    /// A watchdog over `rules`.
    pub fn new(config: WatchConfig, rules: Vec<Rule>) -> Self {
        let log_capacity = config.log_capacity.max(1);
        let state = WatchState {
            rules: vec![RuleState::default(); rules.len()],
            log: IncidentLog::new(log_capacity),
        };
        Watchdog {
            config: WatchConfig {
                trip_after: config.trip_after.max(1),
                clear_after: config.clear_after.max(1),
                ewma_alpha: config.ewma_alpha.clamp(1e-6, 1.0),
                log_capacity,
            },
            rules,
            state: Mutex::new(state),
            flight: None,
            flight_dumps: AtomicU64::new(0),
            metrics: None,
        }
    }

    /// Wires the unified dump path: every incident opening (rule trip
    /// or event) dumps the flight ring once.
    pub fn with_flight(mut self, flight: Arc<FlightRecorder>) -> Self {
        self.flight = Some(flight);
        self
    }

    /// Registers the `watch.*` families up front so they exist in
    /// `/metrics` before any incident does.
    pub fn with_metrics(mut self, metrics: &Metrics) -> Self {
        let m = WatchMetrics {
            incidents: metrics.counter("watch.incidents"),
            active: metrics.gauge("watch.active"),
            dumps: metrics.counter("watch.flight_dumps"),
        };
        m.incidents.add(0);
        m.dumps.add(0);
        m.active.set(0.0);
        self.metrics = Some(m);
        self
    }

    /// Runs every rule against one tick. Returns the sequence numbers
    /// of incidents that opened on this tick (usually empty).
    pub fn observe(&self, tick: &Tick) -> Vec<u64> {
        let mut opened = Vec::new();
        let mut dump_reasons: Vec<String> = Vec::new();
        {
            let mut state = lock!(self.state.lock());
            for (i, rule) in self.rules.iter().enumerate() {
                let Some(value) = rule.read(tick) else {
                    continue; // series not yet registered, or no evidence
                };
                if !value.is_finite() {
                    continue;
                }
                let (anomalous, threshold) = {
                    let rs = &mut state.rules[i];
                    Self::evaluate(&self.config, &rule.detector, rs, value)
                };
                let rs = &mut state.rules[i];
                if anomalous {
                    rs.anomalous_streak = rs.anomalous_streak.saturating_add(1);
                    rs.normal_streak = 0;
                } else {
                    rs.normal_streak = rs.normal_streak.saturating_add(1);
                    rs.anomalous_streak = 0;
                }
                if !rs.latched && rs.anomalous_streak >= self.config.trip_after {
                    rs.latched = true;
                    let streak = rs.anomalous_streak;
                    let series = match &rule.detector {
                        Detector::Burn { bad, .. } => format!("burn of {bad} in {}", rule.metric),
                        _ => format!("{}:{:?}", rule.metric, rule.stat),
                    };
                    let detail = format!(
                        "{series} = {value:.3} crossed {threshold:.3} for {streak} consecutive ticks"
                    );
                    let seq = state.log.open(Incident {
                        seq: 0,
                        rule: rule.name.clone(),
                        series: rule.metric.clone(),
                        kind: rule.detector.kind().to_owned(),
                        opened_epoch: tick.epoch,
                        opened_offset_ns: tick.offset_ns,
                        closed_epoch: None,
                        value,
                        threshold,
                        detail,
                    });
                    state.rules[i].open_seq = seq;
                    opened.push(seq);
                    dump_reasons.push(format!("watchdog: {}", rule.name));
                } else if rs.latched && rs.normal_streak >= self.config.clear_after {
                    rs.latched = false;
                    let seq = rs.open_seq;
                    state.log.close(seq, tick.epoch);
                }
            }
        }
        self.publish(&dump_reasons);
        opened
    }

    /// Evaluates one detector; returns `(anomalous, threshold_crossed)`
    /// and updates EWMA state for z-score rules.
    fn evaluate(
        config: &WatchConfig,
        detector: &Detector,
        rs: &mut RuleState,
        value: f64,
    ) -> (bool, f64) {
        match detector {
            Detector::Above { max } => (value > *max, *max),
            Detector::Burn { .. } => (value >= FAST_BURN, FAST_BURN),
            Detector::Below { min, min_samples } => {
                // Only healthy observations arm the rule; see the
                // detector docs for why idle-at-zero must not count.
                if value >= *min {
                    rs.samples += 1;
                }
                (rs.samples >= *min_samples && value < *min, *min)
            }
            Detector::ZScore {
                factor,
                min_samples,
            } => {
                let warm = rs.samples >= *min_samples;
                let sd = rs.ewma_var.max(0.0).sqrt();
                // Floor the deviation so a perfectly flat warmup series
                // (sd = 0) doesn't trip on a one-bucket step.
                let floor = (rs.ewma_mean.abs() * ZSCORE_FLOOR).max(1e-9);
                let z = (value - rs.ewma_mean) / sd.max(floor);
                let anomalous = warm && z > *factor;
                // Track the signal only while it is normal, so the trip
                // baseline doesn't chase the regression it just caught.
                if !anomalous {
                    let alpha = config.ewma_alpha;
                    if rs.samples == 0 {
                        rs.ewma_mean = value;
                        rs.ewma_var = 0.0;
                    } else {
                        let diff = value - rs.ewma_mean;
                        rs.ewma_mean += alpha * diff;
                        rs.ewma_var = (1.0 - alpha) * (rs.ewma_var + alpha * diff * diff);
                    }
                    rs.samples += 1;
                }
                (anomalous, *factor)
            }
        }
    }

    /// Records a point event (a caught panic): the incident opens and
    /// closes in the same instant, and the flight ring dumps once.
    pub fn event(&self, name: &str, detail: &str) -> u64 {
        let seq = {
            let mut state = lock!(self.state.lock());
            state.log.open(Incident {
                seq: 0,
                rule: name.to_owned(),
                series: String::new(),
                kind: "event".to_owned(),
                opened_epoch: 0,
                opened_offset_ns: trace::process_offset_ns(),
                closed_epoch: Some(0),
                value: 1.0,
                threshold: 0.0,
                detail: detail.to_owned(),
            })
        };
        self.publish(&[format!("watchdog: {name}")]);
        seq
    }

    /// Installs a panic hook that records an `event` incident and dumps
    /// the flight ring before unwinding continues. Chains the previous
    /// hook so the default backtrace printer still runs.
    pub fn install_panic_hook(watchdog: &Arc<Watchdog>) {
        let watchdog = Arc::clone(watchdog);
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let detail = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".to_owned());
            watchdog.event("panic", &detail);
            previous(info);
        }));
    }

    /// Emits dumps + refreshes `watch.*` after releasing the state lock.
    fn publish(&self, dump_reasons: &[String]) {
        for reason in dump_reasons {
            if let Some(flight) = &self.flight {
                flight.dump(&mut std::io::stderr().lock(), reason);
            }
            self.flight_dumps.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = &self.metrics {
                m.incidents.incr();
                m.dumps.incr();
            }
        }
        if let Some(m) = &self.metrics {
            m.active.set(self.active() as f64);
        }
    }

    /// Number of incidents currently standing.
    pub fn active(&self) -> u64 {
        self.standing().len() as u64
    }

    /// Names of the rules whose incident currently stands.
    pub fn standing(&self) -> Vec<&str> {
        let state = lock!(self.state.lock());
        self.rules
            .iter()
            .zip(&state.rules)
            .filter(|(_, rs)| rs.latched)
            .map(|(rule, _)| rule.name.as_str())
            .collect()
    }

    /// Total incidents opened over the process lifetime.
    pub fn opened(&self) -> u64 {
        lock!(self.state.lock()).log.opened()
    }

    /// Flight dumps fired through the unified trigger path.
    pub fn flight_dumps(&self) -> u64 {
        self.flight_dumps.load(Ordering::Relaxed)
    }

    /// The retained incidents, oldest first.
    pub fn incidents(&self) -> Vec<Incident> {
        lock!(self.state.lock()).log.entries()
    }

    /// Bounded log capacity.
    pub fn log_capacity(&self) -> usize {
        self.config.log_capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::{TimeSeries, TsConfig};

    /// A tick whose only series is gauge `g` at `value`.
    fn gauge_tick(epoch: u64, value: f64) -> Tick {
        let m = Metrics::new();
        m.gauge("g").set(value);
        TimeSeries::new(TsConfig {
            interval_ns: 1_000_000_000,
            retention: 4,
        })
        .sample_at(&m, epoch * 1_000_000_000)
    }

    fn above_rule() -> Rule {
        Rule {
            name: "g_high".to_owned(),
            metric: "g".to_owned(),
            stat: Stat::Value,
            detector: Detector::Above { max: 10.0 },
            evidence: None,
        }
    }

    #[test]
    fn hysteresis_requires_consecutive_anomalies_to_trip() {
        let w = Watchdog::new(
            WatchConfig {
                trip_after: 3,
                clear_after: 2,
                ..WatchConfig::default()
            },
            vec![above_rule()],
        );
        // Alternating good/bad never reaches a 3-streak: no flapping.
        for epoch in 0..12 {
            let value = if epoch % 2 == 0 { 50.0 } else { 1.0 };
            assert!(w.observe(&gauge_tick(epoch, value)).is_empty());
        }
        assert_eq!(w.opened(), 0);
        // Three consecutive bad ticks trip exactly once; staying bad
        // does not re-trip (latched).
        for epoch in 12..20 {
            w.observe(&gauge_tick(epoch, 50.0));
        }
        assert_eq!(w.opened(), 1);
        assert_eq!(w.active(), 1);
        assert_eq!(w.flight_dumps(), 1, "dump fires once per incident");
    }

    #[test]
    fn latch_clears_only_after_consecutive_normals_then_rearms() {
        let w = Watchdog::new(
            WatchConfig {
                trip_after: 2,
                clear_after: 3,
                ..WatchConfig::default()
            },
            vec![above_rule()],
        );
        w.observe(&gauge_tick(0, 50.0));
        w.observe(&gauge_tick(1, 50.0)); // trips
        assert_eq!(w.active(), 1);
        // One good tick then bad again: still latched, still 1 incident.
        w.observe(&gauge_tick(2, 1.0));
        w.observe(&gauge_tick(3, 50.0));
        assert_eq!((w.opened(), w.active()), (1, 1));
        // Three consecutive good ticks clear the latch.
        for epoch in 4..7 {
            w.observe(&gauge_tick(epoch, 1.0));
        }
        assert_eq!(w.active(), 0);
        let incidents = w.incidents();
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].closed_epoch, Some(6));
        // Re-armed: a fresh regression opens a second incident.
        w.observe(&gauge_tick(7, 50.0));
        w.observe(&gauge_tick(8, 50.0));
        assert_eq!(w.opened(), 2);
    }

    #[test]
    fn zscore_trips_on_drift_not_on_steady_noise() {
        let w = Watchdog::new(
            WatchConfig {
                trip_after: 2,
                clear_after: 2,
                ..WatchConfig::default()
            },
            vec![Rule {
                name: "drift".to_owned(),
                metric: "g".to_owned(),
                stat: Stat::Value,
                detector: Detector::ZScore {
                    factor: 4.0,
                    min_samples: 8,
                },
                evidence: None,
            }],
        );
        // Steady mild noise around 100: never trips.
        for epoch in 0..30 {
            let value = 100.0 + if epoch % 2 == 0 { 2.0 } else { -2.0 };
            w.observe(&gauge_tick(epoch, value));
        }
        assert_eq!(w.opened(), 0);
        // A 10x step change trips after trip_after ticks.
        w.observe(&gauge_tick(30, 1000.0));
        w.observe(&gauge_tick(31, 1000.0));
        assert_eq!(w.opened(), 1);
        let incident = &w.incidents()[0];
        assert_eq!(incident.kind, "zscore");
        assert_eq!(incident.opened_epoch, 31);
    }

    /// The incidents the serving edge's p99 drift rule opens, tick by
    /// tick, under the default watch settings: 17 ticks of `n` samples
    /// just under 2^20 ns (so p99 reads the bucket bound), the last
    /// `slow` of each tick after the twelfth just under `step_ns`.
    fn p99_drift(n: u64, slow: u64, step_ns: u64) -> Vec<usize> {
        let rule = Rule {
            name: "latency_drift".to_owned(),
            metric: "h".to_owned(),
            stat: Stat::P99,
            detector: Detector::ZScore {
                factor: 6.0,
                min_samples: 12,
            },
            evidence: None,
        };
        let w = Watchdog::new(WatchConfig::default(), vec![rule]);
        let (m, ts) = (Metrics::new(), TimeSeries::new(TsConfig::default()));
        let tick = |epoch: u64| {
            let slow = if epoch <= 12 { 0 } else { slow };
            (0..n - slow).for_each(|_| m.histogram("h").record_ns((1 << 20) - 1));
            (0..slow).for_each(|_| m.histogram("h").record_ns(step_ns - 1));
            let tick = ts.sample_at(&m, epoch * SEC);
            let p99 = if slow == 0 { 1 << 20 } else { step_ns };
            assert_eq!(tick.value("h", Stat::P99), Some(p99 as f64));
            w.observe(&tick).len()
        };
        (1..=17).map(tick).collect()
    }

    #[test]
    fn zscore_waits_out_a_one_bucket_p99_step() {
        // A steady p99 at 2^20 ns through warm-up, then a step of one
        // or two power-of-two buckets, at the serving edge's defaults.
        let opened = |step_ns| p99_drift(100, 100, step_ns);
        assert_eq!(opened(1 << 21), vec![0; 17], "one bucket up is noise");
        let trip_after = WatchConfig::default().trip_after as usize;
        let mut expected = vec![0; 17];
        expected[12 + trip_after - 1] = 1;
        assert_eq!(opened(1 << 22), expected, "two buckets up is drift");
    }

    #[test]
    fn p99_drift_judges_only_ticks_of_a_hundred_samples() {
        // In a tick of 72 the p99 is its maximum, here one request in
        // the 2^24 ns bucket.
        let one_slow_request = p99_drift(72, 1, 1 << 24);
        assert_eq!(
            one_slow_request,
            vec![0; 17],
            "one slow request is not drift"
        );
        let two_buckets_up = p99_drift(100, 100, 1 << 22);
        assert_eq!(two_buckets_up.iter().sum::<usize>(), 1, "is drift");
    }

    #[test]
    fn below_detector_waits_out_warmup() {
        let w = Watchdog::new(
            WatchConfig {
                trip_after: 1,
                clear_after: 1,
                ..WatchConfig::default()
            },
            vec![Rule {
                name: "ratio_collapse".to_owned(),
                metric: "g".to_owned(),
                stat: Stat::Value,
                detector: Detector::Below {
                    min: 0.5,
                    min_samples: 3,
                },
                evidence: None,
            }],
        );
        // A series that idles at 0 forever never arms the rule: an
        // unused subsystem is not a collapsed one.
        for epoch in 0..20 {
            w.observe(&gauge_tick(epoch, 0.0));
        }
        assert_eq!(w.opened(), 0, "idle-at-zero must never trip");
        // Healthy traffic arms it; only then does a drop trip.
        for epoch in 20..22 {
            w.observe(&gauge_tick(epoch, 0.8));
        }
        w.observe(&gauge_tick(22, 0.1));
        assert_eq!(w.opened(), 0, "still one healthy tick short");
        w.observe(&gauge_tick(23, 0.8));
        w.observe(&gauge_tick(24, 0.1));
        assert_eq!(w.opened(), 1, "post-activation collapse trips");
    }

    #[test]
    fn ticks_without_evidence_neither_arm_nor_clear() {
        // A rolling score that holds between samples, gated on its
        // sample counter.
        let mut rule = above_rule();
        rule.detector = Detector::Below {
            min: 0.5,
            min_samples: 3,
        };
        rule.evidence = Some("samples".to_owned());
        let w = hair_trigger(vec![rule]);
        let (m, ts) = (Metrics::new(), TimeSeries::new(TsConfig::default()));
        let mut epoch = 0;
        let mut tick = |score: Option<f64>| {
            if let Some(score) = score {
                m.counter("samples").incr();
                m.gauge("g").set(score);
            }
            epoch += 1;
            w.observe(&ts.sample_at(&m, epoch * SEC));
            (w.opened(), w.active())
        };
        // One healthy sample held over ten idle ticks is one healthy
        // tick, so the low sample after it cannot trip.
        tick(Some(0.8));
        (0..10).for_each(|_| assert_eq!(tick(None), (0, 0)));
        assert_eq!(tick(Some(0.1)), (0, 0), "idle ticks armed the rule");
        // Two more healthy samples arm it and a low one trips. Idle
        // ticks holding the low score do not clear it; a healthy
        // sample does.
        tick(Some(0.8));
        tick(Some(0.8));
        assert_eq!(tick(Some(0.1)), (1, 1));
        (0..5).for_each(|_| assert_eq!(tick(None), (1, 1)));
        assert_eq!(tick(Some(0.8)), (1, 0));
    }

    /// A burn rule at target 0.9 over histogram `lat.<route>` and
    /// counter `bad.<route>`.
    fn burn_rule(route: &str) -> Rule {
        Rule {
            name: format!("slo_fast_burn.{route}"),
            metric: format!("lat.{route}"),
            stat: Stat::Count,
            detector: Detector::Burn {
                bad: format!("bad.{route}"),
                target: 0.9,
            },
            evidence: None,
        }
    }

    /// Records `good` and `bad` requests on `route`.
    fn serve(m: &Metrics, route: &str, good: u64, bad: u64) {
        let latency = m.histogram(&format!("lat.{route}"));
        for _ in 0..good + bad {
            latency.record_ns(1_000);
        }
        m.counter(&format!("bad.{route}")).add(bad);
    }

    /// A watchdog that opens on one anomalous tick and closes on one
    /// normal one.
    fn hair_trigger(rules: Vec<Rule>) -> Watchdog {
        let config = WatchConfig {
            trip_after: 1,
            clear_after: 1,
            ..WatchConfig::default()
        };
        Watchdog::new(config, rules)
    }

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn burn_rate_measures_budget_spend() {
        let (m, ts) = (Metrics::new(), TimeSeries::new(TsConfig::default()));
        // 8 good, 2 bad → (2 / 10) / (1 - 0.9) = 2: hot, but under 6.
        serve(&m, "r", 8, 2);
        let tick = ts.sample_at(&m, SEC);
        let burn = burn_rule("r").read(&tick).unwrap();
        assert!((burn - 2.0).abs() < 1e-9, "burn {burn}");
        let w = hair_trigger(vec![burn_rule("r")]);
        w.observe(&tick);
        assert_eq!(w.opened(), 0);
        // Every request bad at target 0 burns 1: never a trip.
        assert_eq!(burn_rate(10, 10, 0.0), 1.0);
        assert_eq!(burn_rate(0, 0, 0.99), 0.0);
    }

    #[test]
    fn burn_rule_reads_an_empty_tick_as_healthy() {
        let (m, ts) = (Metrics::new(), TimeSeries::new(TsConfig::default()));
        let w = hair_trigger(vec![burn_rule("r")]);
        assert_eq!(burn_rule("r").read(&ts.sample_at(&m, SEC)), None);
        serve(&m, "r", 0, 10);
        w.observe(&ts.sample_at(&m, 2 * SEC));
        assert_eq!((w.opened(), w.active()), (1, 1));
        assert_eq!(w.incidents()[0].kind, "burn");
        // No traffic in the next tick: healthy, so the incident closes.
        let quiet = ts.sample_at(&m, 3 * SEC);
        assert_eq!(burn_rule("r").read(&quiet), Some(0.0));
        w.observe(&quiet);
        assert_eq!(w.active(), 0);
    }

    #[test]
    fn burn_rule_waits_for_ten_requests_in_a_tick() {
        let (m, ts) = (Metrics::new(), TimeSeries::new(TsConfig::default()));
        let w = hair_trigger(vec![burn_rule("r")]);
        serve(&m, "r", 0, BURN_MIN_REQUESTS - 1);
        w.observe(&ts.sample_at(&m, SEC));
        assert_eq!(w.opened(), 0, "nine bad requests burn hot but are too few");
        serve(&m, "r", 0, BURN_MIN_REQUESTS);
        w.observe(&ts.sample_at(&m, 2 * SEC));
        assert_eq!(w.opened(), 1);
    }

    #[test]
    fn burn_rules_are_per_route() {
        let (m, ts) = (Metrics::new(), TimeSeries::new(TsConfig::default()));
        let w = hair_trigger(vec![burn_rule("hot"), burn_rule("cold")]);
        serve(&m, "hot", 0, 10);
        serve(&m, "cold", 10, 0);
        w.observe(&ts.sample_at(&m, SEC));
        assert_eq!(w.standing(), vec!["slo_fast_burn.hot"]);
    }

    #[test]
    fn events_are_instantaneous_and_always_logged() {
        let m = Metrics::new();
        let w = Watchdog::new(WatchConfig::default(), Vec::new()).with_metrics(&m);
        w.event("panic", "worker panicked: boom");
        w.event("panic", "again");
        assert_eq!(w.opened(), 2);
        assert_eq!(w.active(), 0, "events never stand");
        assert_eq!(w.flight_dumps(), 2);
        assert_eq!(m.report().counters["watch.incidents"], 2);
        assert_eq!(m.report().counters["watch.flight_dumps"], 2);
    }

    #[test]
    fn incident_log_is_bounded_and_serializable() {
        let w = Watchdog::new(
            WatchConfig {
                log_capacity: 4,
                ..WatchConfig::default()
            },
            Vec::new(),
        );
        for i in 0..10 {
            w.event("panic", &format!("p{i}"));
        }
        let incidents = w.incidents();
        assert_eq!(incidents.len(), 4);
        assert_eq!(incidents[0].seq, 7, "oldest evicted");
        assert_eq!(w.opened(), 10);
        let json = serde_json::to_string(&incidents).unwrap();
        let back: Vec<Incident> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, incidents);
    }

    #[test]
    fn metrics_families_exist_before_any_incident() {
        let m = Metrics::new();
        let _w = Watchdog::new(WatchConfig::default(), Vec::new()).with_metrics(&m);
        let report = m.report();
        assert_eq!(report.counters["watch.incidents"], 0);
        assert_eq!(report.counters["watch.flight_dumps"], 0);
        assert_eq!(report.gauges["watch.active"], 0.0);
    }
}
