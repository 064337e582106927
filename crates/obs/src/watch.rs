//! Anomaly watchdog: detectors over time-series ticks, hysteresis
//! latches, and a bounded incident log unifying every flight-dump
//! trigger.
//!
//! The serving edge used to carry three ad-hoc "dump the black box"
//! triggers — a panic hook, an SLO fast-burn latch, and a sustained-low
//! quality latch — each its own `AtomicBool` with its own once-only
//! logic. [`Watchdog`] replaces them with one path: **rules** evaluate
//! a [`Detector`] against each [`Tick`] the time-series engine cuts,
//! **hysteresis** keeps a rule from flapping (an incident opens only
//! after `trip_after` consecutive anomalous ticks and closes only after
//! `clear_after` consecutive normal ones), and every opening appends a
//! structured [`Incident`] to a bounded [`IncidentLog`] and fires the
//! flight-recorder dump **once per incident** (latched — a regression
//! that stays bad across fifty ticks produces one incident and one
//! dump, not fifty).
//!
//! Signals that already latch elsewhere (SLO fast-burn, sustained-low
//! quality) enter through [`Watchdog::external`], which edge-detects a
//! boolean standing; point events with no duration (a caught panic)
//! enter through [`Watchdog::event`]. All three paths converge on the
//! same log, the same metrics (`watch.*`), and the same dump budget.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::flight::FlightRecorder;
use crate::metrics::Metrics;
use crate::timeseries::{Stat, Tick};
use crate::trace;

/// Wire-schema version of the incident dump; bump on breaking changes.
pub const WATCH_SCHEMA: u32 = 1;

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
}

impl Detector {
    /// Short kind tag used in incident records.
    fn kind(&self) -> &'static str {
        match self {
            Detector::ZScore { .. } => "zscore",
            Detector::Above { .. } => "above",
            Detector::Below { .. } => "below",
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
    /// Rule (or external trigger / event) name.
    pub rule: String,
    /// Series the rule watched; empty for externals/events.
    pub series: String,
    /// Detector kind: `zscore`/`above`/`below`/`external`/`event`.
    pub kind: String,
    /// Tick epoch at open (0 for externals/events, which are not
    /// epoch-aligned).
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

/// Latch state for one external boolean standing.
#[derive(Debug, Clone, Default)]
struct ExternalState {
    active: bool,
    open_seq: u64,
}

/// A bounded append-only incident log: the oldest entry is evicted at
/// capacity, while the `opened` total keeps counting.
#[derive(Debug, Default)]
pub struct IncidentLog {
    incidents: std::collections::VecDeque<Incident>,
    opened: u64,
}

impl IncidentLog {
    /// Appends a new incident, evicting the oldest at `capacity`;
    /// returns the assigned sequence number.
    fn open(&mut self, capacity: usize, mut incident: Incident) -> u64 {
        self.opened += 1;
        incident.seq = self.opened;
        if self.incidents.len() == capacity {
            self.incidents.pop_front();
        }
        self.incidents.push_back(incident);
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
        self.incidents.iter().cloned().collect()
    }

    /// Total incidents ever opened (including evicted ones).
    pub fn opened(&self) -> u64 {
        self.opened
    }
}

/// Everything behind the watchdog's one mutex.
#[derive(Debug, Default)]
struct WatchState {
    rules: Vec<RuleState>,
    externals: BTreeMap<String, ExternalState>,
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

/// Recovers a poisoned guard; incident state is always valid.
macro_rules! lock {
    ($guard:expr) => {
        $guard.unwrap_or_else(|poisoned| poisoned.into_inner())
    };
}

impl Watchdog {
    /// A watchdog over `rules`.
    pub fn new(config: WatchConfig, rules: Vec<Rule>) -> Self {
        let state = WatchState {
            rules: vec![RuleState::default(); rules.len()],
            ..WatchState::default()
        };
        Watchdog {
            config: WatchConfig {
                trip_after: config.trip_after.max(1),
                clear_after: config.clear_after.max(1),
                ewma_alpha: config.ewma_alpha.clamp(1e-6, 1.0),
                log_capacity: config.log_capacity.max(1),
            },
            rules,
            state: Mutex::new(state),
            flight: None,
            flight_dumps: AtomicU64::new(0),
            metrics: None,
        }
    }

    /// Wires the unified dump path: every incident opening (rule trip,
    /// external rising edge, or event) dumps the flight ring once.
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

    /// The configured rules, for documentation surfaces.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Runs every rule against one tick. Returns the sequence numbers
    /// of incidents that opened on this tick (usually empty).
    pub fn observe(&self, tick: &Tick) -> Vec<u64> {
        let mut opened = Vec::new();
        let mut dump_reasons: Vec<String> = Vec::new();
        {
            let mut state = lock!(self.state.lock());
            for (i, rule) in self.rules.iter().enumerate() {
                let Some(value) = tick.value(&rule.metric, rule.stat) else {
                    continue; // series not yet registered
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
                    let detail = format!(
                        "{}:{:?} = {value:.3} crossed {threshold:.3} for {streak} consecutive ticks",
                        rule.metric, rule.stat
                    );
                    let seq = state.log.open(
                        self.config.log_capacity,
                        Incident {
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
                        },
                    );
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
                // (sd = 0) doesn't trip on the first real sample.
                let floor = (rs.ewma_mean.abs() * 0.05).max(1e-9);
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

    /// Edge-detects an external boolean standing (an already-latched
    /// signal like SLO fast-burn): a rising edge opens an incident and
    /// dumps once; a falling edge closes it. Returns the incident seq
    /// when this call opened one.
    pub fn external(&self, name: &str, active: bool, detail: &str) -> Option<u64> {
        let mut opened = None;
        let mut dump_reason = None;
        {
            let mut state = lock!(self.state.lock());
            let current = state.externals.entry(name.to_owned()).or_default().clone();
            if active && !current.active {
                let seq = state.log.open(
                    self.config.log_capacity,
                    Incident {
                        seq: 0,
                        rule: name.to_owned(),
                        series: String::new(),
                        kind: "external".to_owned(),
                        opened_epoch: 0,
                        opened_offset_ns: trace::process_offset_ns(),
                        closed_epoch: None,
                        value: 1.0,
                        threshold: 0.0,
                        detail: detail.to_owned(),
                    },
                );
                let ext = state.externals.get_mut(name).expect("just inserted");
                ext.active = true;
                ext.open_seq = seq;
                opened = Some(seq);
                dump_reason = Some(format!("watchdog: {name}"));
            } else if !active && current.active {
                let seq = current.open_seq;
                if let Some(ext) = state.externals.get_mut(name) {
                    ext.active = false;
                }
                state.log.close(seq, 0);
            }
        }
        self.publish(dump_reason.as_slice());
        opened
    }

    /// Records a point event (a caught panic): the incident opens and
    /// closes in the same instant, and the flight ring dumps once.
    pub fn event(&self, name: &str, detail: &str) -> u64 {
        let seq = {
            let mut state = lock!(self.state.lock());
            state.log.open(
                self.config.log_capacity,
                Incident {
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
                },
            )
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
                flight.dump_stderr(reason);
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

    /// Whether the named external standing is currently active —
    /// cheap enough to guard a per-request edge check.
    pub fn external_active(&self, name: &str) -> bool {
        lock!(self.state.lock())
            .externals
            .get(name)
            .is_some_and(|e| e.active)
    }

    /// Number of incidents currently standing (latched rules + active
    /// externals).
    pub fn active(&self) -> u64 {
        let state = lock!(self.state.lock());
        let rules = state.rules.iter().filter(|r| r.latched).count();
        let externals = state.externals.values().filter(|e| e.active).count();
        (rules + externals) as u64
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
    fn external_edges_open_and_close_one_incident() {
        let w = Watchdog::new(WatchConfig::default(), Vec::new());
        assert!(w.external("slo_fast_burn", false, "").is_none());
        let seq = w.external("slo_fast_burn", true, "burn 14.2 on explain");
        assert!(seq.is_some());
        // Standing high: no re-trigger, dump budget stays at 1.
        assert!(w.external("slo_fast_burn", true, "still burning").is_none());
        assert_eq!((w.opened(), w.active(), w.flight_dumps()), (1, 1, 1));
        w.external("slo_fast_burn", false, "");
        assert_eq!(w.active(), 0);
        assert_eq!(w.incidents()[0].closed_epoch, Some(0));
        // Rising edge again: a second incident.
        w.external("slo_fast_burn", true, "again");
        assert_eq!(w.opened(), 2);
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
