//! Online explanation-quality estimation: a cheap, sampled mirror of
//! the offline metric suite.
//!
//! The offline suite (`exrec-eval`) scores every interface exhaustively
//! against ground truth; the serving edge cannot afford that per
//! request. What it *can* afford is a 1-in-N sample: the explanation
//! and its evidence are already in hand when a request completes, so
//! coverage, provenance depth and citation-ablation fidelity cost a few
//! arithmetic operations over data already computed.
//!
//! * **Deterministic sampling** — [`QualityMonitor::should_sample`]
//!   draws from a seeded [`IdSource`] stream (the same SplitMix64
//!   generator request trace ids come from), so a replayed request
//!   sequence samples identically.
//! * **`quality.*` metrics** — rolling per-interface and per-aim means
//!   exported as gauges, score distributions as milli-unit histograms,
//!   all through the existing [`Metrics`](crate::Metrics) registry and
//!   Prometheus exposition. An interface's gauges appear only once its
//!   window holds [`QUALITY_FILL`] samples.
//!
//! The monitor keeps no alarm of its own. The serving edge judges each
//! interface's `quality.score.<interface>` gauge with a watchdog
//! [`Below`](crate::watch::Detector::Below) rule at `low_threshold`,
//! which arms only on that interface's own healthy ticks, and skips the
//! rule while the gauge is absent.
//!
//! The monitor never computes explanation quality itself — the edge
//! measures (via `exrec-core`'s probes) and feeds scalars in. That
//! keeps this crate free of core/algo dependencies.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::trace::IdSource;
use crate::Telemetry;

/// Samples an interface's rolling window must hold before its
/// `quality.score|fidelity|coverage.<interface>` gauges are published.
/// A mean over a handful of samples is noise: a simulated fresh server
/// on the default world, quality-sampling one default explain per tick
/// (rolling score about 0.17, floor 0.25), paged itself through that
/// interface's rule in 21 of 20,000 runs with no fill, 1 at a fill of
/// 16, and in none from 32 on.
pub const QUALITY_FILL: usize = 32;

/// Shape of the online quality estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityConfig {
    /// Sample one request in `sample_every`. `0` disables sampling,
    /// `1` samples every request.
    pub sample_every: u64,
    /// Seed for the deterministic sampling stream.
    pub seed: u64,
    /// Rolling-window length (samples) for the exported means.
    pub window: usize,
    /// Scores below this count as low-quality; the serving edge's
    /// per-interface quality rules use it as their floor.
    pub low_threshold: f64,
}

impl Default for QualityConfig {
    fn default() -> Self {
        QualityConfig {
            sample_every: 8,
            seed: 0x51,
            window: 128,
            low_threshold: 0.25,
        }
    }
}

/// One sampled quality measurement, as the edge reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct QualitySample<'a> {
    /// Interface key that generated the explanation.
    pub interface: &'a str,
    /// Lowercased aim names the interface declares.
    pub aims: Vec<String>,
    /// Citation-ablation fidelity in `[0, 1]`.
    pub fidelity: f64,
    /// Evidence coverage in `[0, 1]`.
    pub coverage: f64,
    /// Provenance depth (distinct evidence-bearing fragment kinds).
    pub provenance_depth: usize,
    /// Scalar summary in `[0, 1]`.
    pub score: f64,
}

#[derive(Debug, Default)]
struct Rolling {
    window: VecDeque<f64>,
    cap: usize,
}

impl Rolling {
    fn with_cap(cap: usize) -> Self {
        Rolling {
            window: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    fn push(&mut self, v: f64) {
        if self.window.len() == self.cap {
            self.window.pop_front();
        }
        self.window.push_back(v);
    }

    fn mean(&self) -> f64 {
        if self.window.is_empty() {
            0.0
        } else {
            self.window.iter().sum::<f64>() / self.window.len() as f64
        }
    }
}

#[derive(Debug)]
struct ScopeStat {
    samples: u64,
    score: Rolling,
    fidelity: Rolling,
    coverage: Rolling,
    depth: Rolling,
}

impl ScopeStat {
    fn with_cap(cap: usize) -> Self {
        ScopeStat {
            samples: 0,
            score: Rolling::with_cap(cap),
            fidelity: Rolling::with_cap(cap),
            coverage: Rolling::with_cap(cap),
            depth: Rolling::with_cap(cap),
        }
    }
}

#[derive(Debug)]
struct State {
    overall: ScopeStat,
    interfaces: BTreeMap<String, ScopeStat>,
    aims: BTreeMap<String, Rolling>,
    low_streak: u64,
}

/// The live quality estimator: deterministic sampler + rolling stats +
/// `quality.*` metric export.
#[derive(Debug)]
pub struct QualityMonitor {
    telemetry: Telemetry,
    config: QualityConfig,
    ids: IdSource,
    state: Mutex<State>,
}

impl QualityMonitor {
    /// Builds a monitor exporting through `telemetry`'s metrics
    /// registry.
    pub fn new(telemetry: Telemetry, config: QualityConfig) -> Self {
        let window = config.window;
        QualityMonitor {
            ids: IdSource::seeded(config.seed),
            telemetry,
            state: Mutex::new(State {
                overall: ScopeStat::with_cap(window),
                interfaces: BTreeMap::new(),
                aims: BTreeMap::new(),
                low_streak: 0,
            }),
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &QualityConfig {
        &self.config
    }

    /// Whether the next request should be quality-sampled. Advances
    /// the deterministic sampling stream; ~1-in-`sample_every` calls
    /// return true, in a sequence fixed by the seed.
    pub fn should_sample(&self) -> bool {
        match self.config.sample_every {
            0 => false,
            1 => {
                // Still consume a draw so enabling/disabling 1-in-1
                // sampling never shifts the rest of the stream.
                let _ = self.ids.next_id();
                true
            }
            n => self.ids.next_id().is_multiple_of(n),
        }
    }

    /// Folds one sampled measurement in: updates rolling stats and
    /// exports the `quality.*` metric family.
    pub fn observe(&self, sample: &QualitySample<'_>) {
        let metrics = self.telemetry.metrics();
        metrics.counter("quality.samples").incr();
        metrics
            .counter(&format!("quality.samples.{}", sample.interface))
            .incr();
        metrics
            .histogram("quality.score_milli")
            .record_ns((sample.score.clamp(0.0, 1.0) * 1000.0) as u64);
        metrics
            .histogram("quality.fidelity_milli")
            .record_ns((sample.fidelity.clamp(0.0, 1.0) * 1000.0) as u64);

        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let window = self.config.window;
        state.overall.samples += 1;
        state.overall.score.push(sample.score);
        state.overall.fidelity.push(sample.fidelity);
        state.overall.coverage.push(sample.coverage);
        state.overall.depth.push(sample.provenance_depth as f64);
        metrics
            .gauge("quality.score")
            .set(state.overall.score.mean());
        metrics
            .gauge("quality.fidelity")
            .set(state.overall.fidelity.mean());

        let per_interface = state
            .interfaces
            .entry(sample.interface.to_owned())
            .or_insert_with(|| ScopeStat::with_cap(window));
        per_interface.samples += 1;
        per_interface.score.push(sample.score);
        per_interface.fidelity.push(sample.fidelity);
        per_interface.coverage.push(sample.coverage);
        per_interface.depth.push(sample.provenance_depth as f64);
        if per_interface.score.window.len() >= QUALITY_FILL.min(window) {
            metrics
                .gauge(&format!("quality.score.{}", sample.interface))
                .set(per_interface.score.mean());
            metrics
                .gauge(&format!("quality.fidelity.{}", sample.interface))
                .set(per_interface.fidelity.mean());
            metrics
                .gauge(&format!("quality.coverage.{}", sample.interface))
                .set(per_interface.coverage.mean());
        }

        for aim in &sample.aims {
            let rolling = state
                .aims
                .entry(aim.clone())
                .or_insert_with(|| Rolling::with_cap(window));
            rolling.push(sample.score);
            metrics
                .gauge(&format!("quality.aim.{aim}"))
                .set(rolling.mean());
        }

        if sample.score < self.config.low_threshold {
            metrics.counter("quality.low").incr();
            state.low_streak += 1;
        } else {
            state.low_streak = 0;
        }
    }

    /// A serializable snapshot for the `/debug/quality` surface.
    pub fn snapshot(&self) -> QualitySnapshot {
        let state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        QualitySnapshot {
            samples: state.overall.samples,
            sample_every: self.config.sample_every,
            low_threshold: self.config.low_threshold,
            low_streak: state.low_streak,
            sustained_low: false,
            mean_score: state.overall.score.mean(),
            mean_fidelity: state.overall.fidelity.mean(),
            interfaces: state
                .interfaces
                .iter()
                .map(|(name, s)| InterfaceQualityStat {
                    name: name.clone(),
                    samples: s.samples,
                    score: s.score.mean(),
                    fidelity: s.fidelity.mean(),
                    coverage: s.coverage.mean(),
                    provenance_depth: s.depth.mean(),
                })
                .collect(),
            aims: state
                .aims
                .iter()
                .map(|(name, r)| AimQualityStat {
                    name: name.clone(),
                    samples: r.window.len() as u64,
                    score: r.mean(),
                })
                .collect(),
        }
    }
}

/// Rolling quality of one interface as observed live.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterfaceQualityStat {
    /// Interface key.
    pub name: String,
    /// Samples observed (lifetime, not windowed).
    pub samples: u64,
    /// Rolling mean scalar score.
    pub score: f64,
    /// Rolling mean fidelity.
    pub fidelity: f64,
    /// Rolling mean coverage.
    pub coverage: f64,
    /// Rolling mean provenance depth.
    pub provenance_depth: f64,
}

/// Rolling quality per aim as observed live.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AimQualityStat {
    /// Lowercased aim name.
    pub name: String,
    /// Samples currently in the window.
    pub samples: u64,
    /// Rolling mean score of sampled explanations declaring the aim.
    pub score: f64,
}

/// Snapshot of the live estimator — the `/debug/quality` body's
/// `online` section.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualitySnapshot {
    /// Measurements folded in so far.
    pub samples: u64,
    /// Configured 1-in-N sampling rate.
    pub sample_every: u64,
    /// Configured low-quality threshold.
    pub low_threshold: f64,
    /// Current consecutive-low-sample streak, across interfaces.
    pub low_streak: u64,
    /// Whether a `quality_sustained_low.<interface>` watchdog incident
    /// stands. The monitor keeps no alarm and always leaves it false;
    /// the serving edge, which owns the watchdog, fills it in.
    pub sustained_low: bool,
    /// Rolling mean scalar score across all samples.
    pub mean_score: f64,
    /// Rolling mean fidelity across all samples.
    pub mean_fidelity: f64,
    /// Per-interface rolling stats, name-keyed, sorted by key.
    pub interfaces: Vec<InterfaceQualityStat>,
    /// Per-aim rolling stats, name-keyed, sorted by key.
    pub aims: Vec<AimQualityStat>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(interface: &str, score: f64) -> QualitySample<'_> {
        QualitySample {
            interface,
            aims: vec!["trust".to_owned(), "transparency".to_owned()],
            fidelity: score,
            coverage: score,
            provenance_depth: 2,
            score,
        }
    }

    #[test]
    fn sampling_is_deterministic_and_roughly_one_in_n() {
        let config = QualityConfig {
            sample_every: 8,
            ..QualityConfig::default()
        };
        let a = QualityMonitor::new(Telemetry::default(), config.clone());
        let b = QualityMonitor::new(Telemetry::default(), config);
        let da: Vec<bool> = (0..1000).map(|_| a.should_sample()).collect();
        let db: Vec<bool> = (0..1000).map(|_| b.should_sample()).collect();
        assert_eq!(da, db, "same seed, same sampling decisions");
        let hits = da.iter().filter(|&&s| s).count();
        assert!((60..=190).contains(&hits), "~1 in 8 of 1000, got {hits}");

        let every = QualityMonitor::new(
            Telemetry::default(),
            QualityConfig {
                sample_every: 1,
                ..QualityConfig::default()
            },
        );
        assert!((0..100).all(|_| every.should_sample()));
        let never = QualityMonitor::new(
            Telemetry::default(),
            QualityConfig {
                sample_every: 0,
                ..QualityConfig::default()
            },
        );
        assert!((0..100).all(|_| !never.should_sample()));
    }

    #[test]
    fn observe_exports_quality_metric_family() {
        let obs = Telemetry::default();
        let monitor = QualityMonitor::new(obs.clone(), QualityConfig::default());
        // A filled `histogram` window at mean 0.7, and half as many
        // `item_average` samples at 0.4: 0.6 overall.
        let half = QUALITY_FILL / 2;
        for _ in 0..half {
            monitor.observe(&sample("histogram", 0.8));
            monitor.observe(&sample("histogram", 0.6));
            monitor.observe(&sample("item_average", 0.4));
        }

        let report = obs.report();
        assert_eq!(report.counters["quality.samples"], 3 * half as u64);
        assert_eq!(
            report.counters["quality.samples.histogram"],
            QUALITY_FILL as u64
        );
        let per_iface = report.gauges["quality.score.histogram"];
        assert!((per_iface - 0.7).abs() < 1e-9, "rolling mean: {per_iface}");
        let overall = report.gauges["quality.score"];
        assert!((overall - 0.6).abs() < 1e-9, "overall mean: {overall}");
        assert!((report.gauges["quality.aim.trust"] - 0.6).abs() < 1e-9);
        assert_eq!(
            report.histograms["quality.score_milli"].count,
            3 * half as u64
        );
        // Scores under the threshold count as low and extend the streak.
        monitor.observe(&sample("item_average", 0.1));
        monitor.observe(&sample("item_average", 0.1));
        assert_eq!(monitor.snapshot().low_streak, 2);
        assert_eq!(obs.report().counters["quality.low"], 2);
    }

    #[test]
    fn interface_gauges_wait_for_a_filled_window() {
        let obs = Telemetry::default();
        let monitor = QualityMonitor::new(obs.clone(), QualityConfig::default());
        let scores: Vec<f64> = (0..QUALITY_FILL).map(|i| (i % 5) as f64 / 5.0).collect();
        for (i, &score) in scores.iter().enumerate() {
            let gauges = obs.report().gauges;
            for family in ["score", "fidelity", "coverage"] {
                let name = format!("quality.{family}.histogram");
                assert!(!gauges.contains_key(&name), "{name} after {i} samples");
            }
            monitor.observe(&sample("histogram", score));
        }
        let mean = scores.iter().sum::<f64>() / scores.len() as f64;
        let gauges = obs.report().gauges;
        for family in ["score", "fidelity", "coverage"] {
            let value = gauges[&format!("quality.{family}.histogram")];
            assert!((value - mean).abs() < 1e-9, "{family}: {value} vs {mean}");
        }
    }

    #[test]
    fn snapshot_round_trips_and_is_name_keyed() {
        let monitor = QualityMonitor::new(Telemetry::default(), QualityConfig::default());
        monitor.observe(&sample("histogram", 0.75));
        monitor.observe(&sample("neighbor_count", 0.25));
        let snap = monitor.snapshot();
        assert_eq!(snap.samples, 2);
        assert_eq!(snap.interfaces.len(), 2);
        assert!(snap.interfaces.iter().all(|i| !i.name.is_empty()));
        assert_eq!(snap.aims.len(), 2);
        let json = serde_json::to_string(&snap).unwrap();
        let back: QualitySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn window_bounds_the_rolling_mean() {
        let monitor = QualityMonitor::new(
            Telemetry::default(),
            QualityConfig {
                window: 4,
                ..QualityConfig::default()
            },
        );
        for _ in 0..10 {
            monitor.observe(&sample("histogram", 0.0));
        }
        for _ in 0..4 {
            monitor.observe(&sample("histogram", 1.0));
        }
        let snap = monitor.snapshot();
        assert!(
            (snap.mean_score - 1.0).abs() < 1e-9,
            "old zeros evicted: {}",
            snap.mean_score
        );
    }
}
