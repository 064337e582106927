//! # exrec-eval
//!
//! The evaluation harness: executable, simulated-user versions of every
//! evaluation protocol in Section 3 of the reproduced survey.
//!
//! * [`stats`] — summaries, Welch-t, Mann–Whitney U, correlations;
//! * [`questionnaire`] — the five-dimension trust battery (Section 3.3);
//! * [`simuser`] — the behavioural model standing in for human
//!   participants (see DESIGN.md §2 for the substitution argument);
//! * [`report`] — tables/series/JSON study reports;
//! * [`studies`] — E-PERS, E-SHIFT, E-EFK, E-EFC, E-TRUST, E-TRA, E-SCR,
//!   E-SAT, the A-TRADE ablation, and the E-MODAL / E-ACC extensions.
//!
//! Every study is seed-deterministic; unit tests assert the *shape* of
//! each cited result (who wins, which direction), never absolute values.
//!
//! Studies can run sequentially ([`run_all_studies_with`]) or fanned out
//! over the batch pool from `exrec_algo::batch`
//! ([`run_all_studies_with_threads`]); because each study owns its RNG
//! stream and shares no mutable state, the parallel mode returns
//! identical reports in canonical order. The `repro` binary exposes this
//! as `--parallel [N]`.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use std::time::Instant;

use exrec_core::aims::Aim;
use exrec_obs::Telemetry;

pub mod quality;
pub mod questionnaire;
pub mod report;
pub mod simuser;
pub mod stats;
pub mod studies;

pub use report::{Series, StudyReport, Table};
pub use simuser::{Persona, SimUser};

/// Runs every study at its default configuration and returns the reports
/// in experiment-id order. Used by the `repro` binary and the benchmark
/// harness.
pub fn run_all_studies() -> Vec<StudyReport> {
    run_all_studies_with(&Telemetry::default())
}

/// Runs one study under telemetry: a `study` span plus, on the metrics
/// registry, its wall-clock (`eval.study_ns.<id>`), the same duration
/// filed under every aim it evaluates (`eval.aim_ns.<aim>`), simulated
/// throughput (`eval.users_per_sec.<id>`), and workspace-wide totals
/// (`eval.studies_run`, `eval.simulated_users`).
fn observed(
    telemetry: &Telemetry,
    aims: &[Aim],
    participants: usize,
    run: impl FnOnce() -> StudyReport,
) -> StudyReport {
    let started = Instant::now();
    let report = run();
    let elapsed = started.elapsed();

    // Re-emit the span after the fact so its duration matches the
    // recorded wall-clock and the id comes from the report itself.
    drop(
        exrec_obs::span!(
            telemetry,
            "study",
            id = &report.id,
            participants = participants
        )
        .started_at(started),
    );
    let metrics = telemetry.metrics();
    metrics
        .histogram(&format!("eval.study_ns.{}", report.id))
        .record(elapsed);
    for aim in aims {
        metrics
            .histogram(&format!("eval.aim_ns.{}", aim.name().to_ascii_lowercase()))
            .record(elapsed);
    }
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        metrics
            .gauge(&format!("eval.users_per_sec.{}", report.id))
            .set(participants as f64 / secs);
    }
    metrics.counter("eval.studies_run").incr();
    metrics
        .counter("eval.simulated_users")
        .add(participants as u64);
    report
}

/// Every study's experiment id, in canonical run order.
pub const STUDY_IDS: [&str; 11] = [
    "E-PERS", "E-SHIFT", "E-EFK", "E-EFC", "E-TRUST", "E-TRA", "E-SCR", "E-SAT", "A-TRADE",
    "E-MODAL", "E-ACC",
];

/// Runs one study (by experiment id, case-insensitive) at its default
/// configuration, recording per-study telemetry (wall-clock, per-aim
/// durations, throughput). Returns `None` for unknown ids.
pub fn run_study_with(telemetry: &Telemetry, id: &str) -> Option<StudyReport> {
    use Aim::*;

    /// Runs one study at its default config under [`observed`], naming
    /// the config field that holds the simulated-participant count.
    macro_rules! study {
        ($module:ident, $participants:ident, [$($aim:ident),+]) => {{
            let cfg = studies::$module::Config::default();
            let n = cfg.$participants;
            observed(telemetry, &[$($aim),+], n, || studies::$module::run(&cfg).report)
        }};
    }

    let report = match id.to_uppercase().as_str() {
        "E-PERS" => study!(persuasion_herlocker, n_participants, [Persuasiveness]),
        "E-SHIFT" => study!(rating_shift, n_participants, [Persuasiveness]),
        "E-EFK" => study!(effectiveness, n_participants, [Effectiveness]),
        "E-EFC" => study!(efficiency, n_shoppers, [Efficiency]),
        "E-TRUST" => study!(trust_loyalty, n_participants, [Trust]),
        "E-TRA" => study!(transparency, n_participants, [Transparency]),
        "E-SCR" => study!(scrutability, n_participants, [Scrutability]),
        "E-SAT" => study!(satisfaction, n_participants, [Satisfaction]),
        // A-TRADE sweeps the survey's two named tensions, so its
        // duration is filed under all four aims being traded off.
        "A-TRADE" => study!(
            tradeoffs,
            n_participants,
            [Transparency, Efficiency, Persuasiveness, Effectiveness]
        ),
        // E-MODAL measures comprehension (effectiveness) and preference
        // (satisfaction) across text/visual variants.
        "E-MODAL" => study!(modality, n_participants, [Effectiveness, Satisfaction]),
        "E-ACC" => study!(accuracy, n_users, [Effectiveness]),
        _ => return None,
    };
    Some(report)
}

/// [`run_all_studies`], recording per-study telemetry: wall-clock
/// histograms (`eval.study_ns.<id>`), the same durations grouped by the
/// survey aim each study evaluates (`eval.aim_ns.<aim>`), and
/// simulated-user throughput gauges (`eval.users_per_sec.<id>`). The
/// study→aim mapping follows the survey's Section 3 assignments; A-TRADE
/// and the extensions are filed under every aim they trade off (see
/// `docs/observability.md`).
pub fn run_all_studies_with(telemetry: &Telemetry) -> Vec<StudyReport> {
    run_all_studies_with_threads(telemetry, 1)
}

/// [`run_all_studies_with`], but fanning independent studies out over
/// `threads` workers (`0` = available parallelism, `1` = sequential)
/// using the batch pool from `exrec_algo::batch`.
///
/// Studies are internally seed-deterministic and share no mutable state,
/// so every report is identical to the sequential run and reports come
/// back in canonical [`STUDY_IDS`] order regardless of scheduling. The
/// telemetry registry is lock-free on the hot path and its counters
/// commute, so aggregate totals (`eval.studies_run`,
/// `eval.simulated_users`, per-study wall-clocks) also match; only
/// throughput gauges may differ, since wall-clock under contention is
/// not wall-clock alone.
pub fn run_all_studies_with_threads(telemetry: &Telemetry, threads: usize) -> Vec<StudyReport> {
    let threads = if threads == 0 {
        exrec_algo::batch::default_threads()
    } else {
        threads
    };
    exrec_algo::batch::parallel_map(threads, &STUDY_IDS, |_, id| {
        run_study_with(telemetry, id).expect("known id")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_studies_produce_reports_and_telemetry() {
        let obs = Telemetry::default();
        let reports = run_all_studies_with(&obs);
        assert_eq!(reports.len(), 11);
        let ids: Vec<&str> = reports.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(
            ids,
            vec![
                "E-PERS", "E-SHIFT", "E-EFK", "E-EFC", "E-TRUST", "E-TRA", "E-SCR", "E-SAT",
                "A-TRADE", "E-MODAL", "E-ACC"
            ]
        );
        for r in &reports {
            assert!(!r.tables.is_empty(), "{} has no tables", r.id);
            assert!(!r.render_ascii().is_empty());
        }

        let report = obs.report();
        assert_eq!(report.counters["eval.studies_run"], 11);
        assert!(report.counters["eval.simulated_users"] > 0);
        // One wall-clock sample and one throughput gauge per study…
        for id in &ids {
            assert_eq!(report.histograms[&format!("eval.study_ns.{id}")].count, 1);
            assert!(report.gauges[&format!("eval.users_per_sec.{id}")] > 0.0);
        }
        assert_eq!(report.histograms["span_ns.study"].count, 11);
        // …and every one of the survey's seven aims exercised at least
        // once (persuasiveness by both E-PERS and E-SHIFT).
        for aim in Aim::ALL {
            let samples = report.histograms
                [&format!("eval.aim_ns.{}", aim.name().to_ascii_lowercase())]
                .count;
            assert!(samples >= 1, "aim {} never evaluated", aim.name());
        }
        assert_eq!(report.histograms["eval.aim_ns.persuasiveness"].count, 3);
    }

    #[test]
    fn parallel_studies_match_sequential() {
        let sequential = run_all_studies_with(&Telemetry::default());
        let obs = Telemetry::default();
        let parallel = run_all_studies_with_threads(&obs, 4);
        assert_eq!(parallel.len(), sequential.len());
        for (p, s) in parallel.iter().zip(&sequential) {
            assert_eq!(p.id, s.id, "canonical order survives scheduling");
            assert_eq!(p.tables, s.tables, "{}: reports must be identical", p.id);
        }
        // Aggregate telemetry still adds up under concurrency.
        let report = obs.report();
        assert_eq!(report.counters["eval.studies_run"], 11);
        assert_eq!(report.histograms["span_ns.study"].count, 11);
    }
}
