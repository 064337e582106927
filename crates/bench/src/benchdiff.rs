//! Schema-versioned comparison of benchmark reports — the
//! perf-regression gate behind the `benchdiff` binary.
//!
//! The load generator (`loadgen` → `BENCH_serve_net.json`) and
//! `repro --json` stamp every report with a
//! [`SCHEMA_VERSION`] and a [`RunMeta`] block (git revision, world
//! shape, thread count). [`compare`] takes two such reports and walks
//! their numeric leaves generically:
//!
//! * **throughput metrics** (`requests_per_sec`, `speedup_*`) are
//!   higher-better;
//! * **latency metrics** (`latency_ms.{p50,p95,p99,mean,max}`) are
//!   lower-better;
//! * **accuracy metrics** (`recall_at_k`, offline quality leaves) are
//!   higher-better;
//! * everything else (counts, configuration echoes) is ignored.
//!
//! A comparison **refuses** (instead of reporting a bogus pass or
//! fail) when the reports disagree on schema version, benchmark name,
//! world shape or thread count — numbers from different worlds are not
//! comparable. Git revisions are *expected* to differ; comparing
//! across revisions is the point.
//!
//! The `benchdiff` binary exits `0` when every shared metric is within
//! the threshold, `1` on any regression, and `2` on usage errors or
//! incompatible reports, so CI can gate merges on it directly.

use serde_json::Value;
use std::collections::BTreeMap;

/// Build/world metadata stamped into every benchmark report; shared
/// with the serving edge's `/healthz` build block via `exrec_obs`.
pub use exrec_obs::meta::RunMeta;

/// Version of the report layout `compare` understands. Bump when a
/// report's metric paths or meta block change incompatibly.
pub const SCHEMA_VERSION: u32 = 1;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bigger is better (throughput, speedups).
    HigherBetter,
    /// Smaller is better (latency).
    LowerBetter,
}

/// One metric present in both reports, with its relative change.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// Dot-joined path of the metric (array elements keyed by their
    /// `name` field when present).
    pub path: String,
    /// Improvement direction the comparison applied.
    pub direction: Direction,
    /// Baseline value.
    pub old: f64,
    /// Candidate value.
    pub new: f64,
    /// `(new − old) / old × 100`, signed.
    pub change_pct: f64,
    /// Whether the change worsens past the threshold.
    pub regressed: bool,
}

/// Outcome of [`compare`].
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Every metric present in both reports, in path order.
    pub deltas: Vec<MetricDelta>,
    /// Metric paths present only in the baseline (workloads dropped).
    pub only_old: Vec<String>,
    /// Metric paths present only in the candidate (workloads added).
    pub only_new: Vec<String>,
}

impl Comparison {
    /// The deltas that regressed past the threshold.
    pub fn regressions(&self) -> Vec<&MetricDelta> {
        self.deltas.iter().filter(|d| d.regressed).collect()
    }
}

/// Compares two benchmark reports (parsed JSON), flagging metrics that
/// worsened by more than `threshold_pct` percent.
///
/// # Errors
///
/// Returns a human-readable refusal when the reports cannot be
/// compared: missing or mismatched `schema_version`, `benchmark`,
/// `meta.world` or `meta.threads`, or a schema version this build does
/// not understand.
pub fn compare(old: &Value, new: &Value, threshold_pct: f64) -> Result<Comparison, String> {
    for pointer in [
        "/schema_version",
        "/benchmark",
        "/meta/world",
        "/meta/threads",
    ] {
        require_match(old, new, pointer)?;
    }
    let version = old
        .pointer("/schema_version")
        .and_then(Value::as_u64)
        .unwrap_or(0);
    if version != u64::from(SCHEMA_VERSION) {
        return Err(format!(
            "schema_version {version} unsupported (this build understands {SCHEMA_VERSION})"
        ));
    }

    let old_metrics = collect_metrics(old);
    let new_metrics = collect_metrics(new);
    let mut deltas = Vec::new();
    let mut only_old = Vec::new();
    for (path, &(direction, old_value)) in &old_metrics {
        let Some(&(_, new_value)) = new_metrics.get(path) else {
            only_old.push(path.clone());
            continue;
        };
        // A zero baseline (e.g. latency digest with no samples) has no
        // meaningful relative change; skip rather than divide by it.
        if old_value <= 0.0 {
            continue;
        }
        let change_pct = (new_value - old_value) / old_value * 100.0;
        let regressed = match direction {
            Direction::HigherBetter => change_pct < -threshold_pct,
            Direction::LowerBetter => change_pct > threshold_pct,
        };
        deltas.push(MetricDelta {
            path: path.clone(),
            direction,
            old: old_value,
            new: new_value,
            change_pct,
            regressed,
        });
    }
    let only_new = new_metrics
        .keys()
        .filter(|path| !old_metrics.contains_key(*path))
        .cloned()
        .collect();
    Ok(Comparison {
        deltas,
        only_old,
        only_new,
    })
}

/// Requires the same value at `pointer` in both reports.
fn require_match(old: &Value, new: &Value, pointer: &str) -> Result<(), String> {
    match (old.pointer(pointer), new.pointer(pointer)) {
        (Some(a), Some(b)) if a == b => Ok(()),
        (Some(a), Some(b)) => Err(format!(
            "{pointer} mismatch: {} vs {}",
            serde_json::to_string(a).unwrap_or_default(),
            serde_json::to_string(b).unwrap_or_default(),
        )),
        _ => Err(format!(
            "{pointer} missing from a report (regenerate with the current benchmark writers)"
        )),
    }
}

/// Improvement direction of the leaf at `path`, `None` for
/// non-performance numbers (counts, configuration echoes).
fn direction_of(path: &[String]) -> Option<Direction> {
    let leaf = path.last()?.as_str();
    if leaf == "requests_per_sec" || leaf.starts_with("speedup_") {
        return Some(Direction::HigherBetter);
    }
    // The pruned neighbour scan's accuracy leaf
    // (`*.scan.recall_at_k`): losing recall is a regression
    // even when latency improves (docs/kernels.md#the-recallk-guarantee).
    if leaf == "recall_at_k" {
        return Some(Direction::HigherBetter);
    }
    let parent = path.len().checked_sub(2).map(|i| path[i].as_str());
    if parent == Some("latency_ms") && matches!(leaf, "p50" | "p95" | "p99" | "mean" | "max") {
        return Some(Direction::LowerBetter);
    }
    // Offline explanation-quality reports (`repro --offline-metrics` →
    // `quality_report.json`, benchmark `offline_quality`): per-interface
    // fidelity/precision/recall/coverage and per-aim scores are
    // higher-better quality metrics; sample counts, provenance depth
    // and reading cost stay unclassified (structural, not gated).
    let top = path.first().map(|s| s.as_str());
    if top == Some("interfaces")
        && matches!(
            leaf,
            "fidelity" | "evidence_precision" | "evidence_recall" | "evidence_f1" | "coverage"
        )
    {
        return Some(Direction::HigherBetter);
    }
    if top == Some("aims") && matches!(leaf, "score" | "static_score") {
        return Some(Direction::HigherBetter);
    }
    None
}

/// Walks a report, collecting every direction-classified numeric leaf
/// keyed by dot-joined path. Array elements are keyed by their `name`
/// field when present (workloads, sweep points), else by index, so
/// paths stay stable across runs.
fn collect_metrics(value: &Value) -> BTreeMap<String, (Direction, f64)> {
    let mut out = BTreeMap::new();
    let mut path = Vec::new();
    walk(value, &mut path, &mut out);
    out
}

fn walk(value: &Value, path: &mut Vec<String>, out: &mut BTreeMap<String, (Direction, f64)>) {
    match value {
        Value::Obj(fields) => {
            for (key, child) in fields {
                path.push(key.clone());
                walk(child, path, out);
                path.pop();
            }
        }
        Value::Arr(items) => {
            for (index, child) in items.iter().enumerate() {
                let label = child
                    .get("name")
                    .and_then(Value::as_str)
                    .map(str::to_owned)
                    .unwrap_or_else(|| index.to_string());
                path.push(label);
                walk(child, path, out);
                path.pop();
            }
        }
        Value::Num(n) => {
            if let Some(direction) = direction_of(path) {
                out.insert(path.join("."), (direction, *n));
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The vendored `serde_json` has no `json!` macro, so fixtures are
    // formatted JSON strings parsed through the real deserializer —
    // which also exercises the path `benchdiff` takes on disk files.
    fn parse(text: &str) -> Value {
        serde_json::from_str(text).expect("fixture JSON parses")
    }

    fn workload_json(name: &str, n_users: u64, requests: u64, rps: f64, p99: f64) -> String {
        format!(
            r#"{{
                "name": "{name}",
                "n_users": {n_users},
                "sequential": {{"requests": {requests}, "requests_per_sec": {rps:?}}},
                "latency_ms": {{"p50": {p50:?}, "p99": {p99:?}}},
                "speedup_batch_vs_sequential": 3.0
            }}"#,
            p50 = p99 / 2.0,
        )
    }

    fn report_with(
        schema: u32,
        git_rev: &str,
        world: &str,
        threads: u64,
        workloads: &[String],
    ) -> Value {
        parse(&format!(
            r#"{{
                "schema_version": {schema},
                "benchmark": "loadgen",
                "quick": true,
                "meta": {{"git_rev": "{git_rev}", "world": "{world}", "threads": {threads}}},
                "threads": {threads},
                "workloads": [{workloads}]
            }}"#,
            workloads = workloads.join(","),
        ))
    }

    fn report(rps: f64, p99: f64) -> Value {
        report_with(
            SCHEMA_VERSION,
            "abc123",
            "synthetic-10k-quick",
            4,
            &[workload_json("synthetic-10k-quick", 10_000, 8, rps, p99)],
        )
    }

    #[test]
    fn self_comparison_passes() {
        let r = report(100.0, 10.0);
        let cmp = compare(&r, &r, 10.0).unwrap();
        assert!(!cmp.deltas.is_empty(), "metrics were collected");
        assert!(cmp.regressions().is_empty());
        assert!(cmp.only_old.is_empty() && cmp.only_new.is_empty());
    }

    #[test]
    fn twenty_percent_throughput_drop_regresses_at_ten_percent_threshold() {
        let old = report(100.0, 10.0);
        let new = report(80.0, 10.0);
        let cmp = compare(&old, &new, 10.0).unwrap();
        let regressions = cmp.regressions();
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].path.ends_with("requests_per_sec"));
        assert!((regressions[0].change_pct - -20.0).abs() < 1e-9);
    }

    #[test]
    fn twenty_percent_latency_rise_regresses_but_improvement_does_not() {
        let old = report(100.0, 10.0);
        let slower = report(100.0, 12.0);
        let cmp = compare(&old, &slower, 10.0).unwrap();
        // p50 and p99 both scale with the fixture's p99 argument.
        assert_eq!(cmp.regressions().len(), 2);

        let faster = report(100.0, 5.0);
        let cmp = compare(&old, &faster, 10.0).unwrap();
        assert!(
            cmp.regressions().is_empty(),
            "improvement is not a regression"
        );
    }

    #[test]
    fn drop_within_threshold_passes() {
        let old = report(100.0, 10.0);
        let new = report(95.0, 10.4);
        let cmp = compare(&old, &new, 10.0).unwrap();
        assert!(cmp.regressions().is_empty());
    }

    #[test]
    fn schema_version_mismatch_is_refused() {
        let old = report(100.0, 10.0);
        let new = report_with(
            SCHEMA_VERSION + 1,
            "abc123",
            "synthetic-10k-quick",
            4,
            &[workload_json("synthetic-10k-quick", 10_000, 8, 100.0, 10.0)],
        );
        let err = compare(&old, &new, 10.0).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn missing_schema_version_is_refused() {
        let old = report(100.0, 10.0);
        let new = parse(
            r#"{
                "benchmark": "loadgen",
                "meta": {"git_rev": "abc123", "world": "synthetic-10k-quick", "threads": 4},
                "workloads": []
            }"#,
        );
        assert!(compare(&old, &new, 10.0).is_err());
    }

    #[test]
    fn world_or_thread_mismatch_is_refused() {
        let wl = || workload_json("synthetic-10k-quick", 10_000, 8, 100.0, 10.0);
        let old = report(100.0, 10.0);
        let new = report_with(SCHEMA_VERSION, "abc123", "synthetic-100k", 4, &[wl()]);
        assert!(compare(&old, &new, 10.0).unwrap_err().contains("world"));

        let new = report_with(SCHEMA_VERSION, "abc123", "synthetic-10k-quick", 8, &[wl()]);
        assert!(compare(&old, &new, 10.0).unwrap_err().contains("threads"));
    }

    #[test]
    fn differing_git_revs_are_comparable() {
        let old = report(100.0, 10.0);
        let new = report_with(
            SCHEMA_VERSION,
            "def456",
            "synthetic-10k-quick",
            4,
            &[workload_json("synthetic-10k-quick", 10_000, 8, 100.0, 10.0)],
        );
        assert!(compare(&old, &new, 10.0).is_ok());
    }

    #[test]
    fn workloads_keyed_by_name_tolerate_reordering_and_flag_additions() {
        let main = workload_json("synthetic-10k-quick", 10_000, 8, 100.0, 10.0);
        let extra =
            r#"{"name": "synthetic-100k", "sequential": {"requests_per_sec": 50.0}}"#.to_owned();
        let old = report_with(
            SCHEMA_VERSION,
            "abc123",
            "synthetic-10k-quick",
            4,
            &[main.clone(), extra.clone()],
        );
        let new = report_with(
            SCHEMA_VERSION,
            "abc123",
            "synthetic-10k-quick",
            4,
            &[extra, main],
        );
        let cmp = compare(&old, &new, 10.0).unwrap();
        assert!(cmp.regressions().is_empty(), "order must not matter");
        assert!(cmp.only_old.is_empty() && cmp.only_new.is_empty());
    }

    #[test]
    fn counts_and_config_echoes_are_ignored() {
        let old = report(100.0, 10.0);
        // Same perf numbers, wildly different counts/config echoes.
        let new = report_with(
            SCHEMA_VERSION,
            "abc123",
            "synthetic-10k-quick",
            4,
            &[workload_json(
                "synthetic-10k-quick",
                999_999,
                1,
                100.0,
                10.0,
            )],
        );
        let cmp = compare(&old, &new, 10.0).unwrap();
        assert!(cmp.regressions().is_empty());
        assert!(cmp.deltas.iter().all(|d| !d.path.ends_with("n_users")));
    }

    fn quality_report(fidelity: f64, trust_score: f64) -> Value {
        parse(&format!(
            r#"{{
                "schema_version": {SCHEMA_VERSION},
                "benchmark": "offline_quality",
                "meta": {{"git_rev": "abc123", "world": "movies+cameras", "threads": 1}},
                "world": "movies+cameras",
                "interfaces": [
                    {{
                        "name": "histogram",
                        "samples": 40,
                        "fidelity": {fidelity:?},
                        "evidence_precision": 0.6,
                        "evidence_recall": 0.5,
                        "evidence_f1": 0.54,
                        "coverage": 0.8,
                        "provenance_depth": 1.5,
                        "reading_cost": 7.0
                    }}
                ],
                "aims": [
                    {{
                        "name": "trust",
                        "best_interface": "histogram",
                        "score": {trust_score:?},
                        "static_default": "clustered_histogram",
                        "static_score": 0.4,
                        "candidates": 5
                    }}
                ]
            }}"#,
        ))
    }

    #[test]
    fn quality_report_self_comparison_collects_quality_leaves() {
        let r = quality_report(0.7, 0.55);
        let cmp = compare(&r, &r, 5.0).unwrap();
        assert!(cmp.regressions().is_empty());
        let paths: Vec<&str> = cmp.deltas.iter().map(|d| d.path.as_str()).collect();
        assert!(
            paths.contains(&"interfaces.histogram.fidelity"),
            "{paths:?}"
        );
        assert!(paths.contains(&"interfaces.histogram.evidence_f1"));
        assert!(paths.contains(&"aims.trust.score"));
        assert!(
            !paths
                .iter()
                .any(|p| p.ends_with("samples") || p.ends_with("candidates")),
            "counts stay unclassified: {paths:?}"
        );
    }

    #[test]
    fn quality_drop_regresses_as_higher_better() {
        let old = quality_report(0.7, 0.55);
        let new = quality_report(0.5, 0.55);
        let cmp = compare(&old, &new, 10.0).unwrap();
        let regressions = cmp.regressions();
        assert_eq!(regressions.len(), 1, "{:?}", cmp.deltas);
        assert_eq!(regressions[0].path, "interfaces.histogram.fidelity");
        assert_eq!(regressions[0].direction, Direction::HigherBetter);

        // A per-aim score drop is gated the same way.
        let cmp = compare(&quality_report(0.7, 0.55), &quality_report(0.7, 0.3), 10.0).unwrap();
        assert_eq!(cmp.regressions().len(), 1);
        assert_eq!(cmp.regressions()[0].path, "aims.trust.score");
    }

    fn scan_report(recall: f64, p50: f64) -> Value {
        parse(&format!(
            r#"{{
                "schema_version": {SCHEMA_VERSION},
                "benchmark": "loadgen",
                "meta": {{"git_rev": "abc123", "world": "synthetic-10k-quick", "threads": 4}},
                "workloads": [
                    {{
                        "name": "synthetic-10k-quick",
                        "scan": {{
                            "recall_probes": 64,
                            "recall_k": 20,
                            "recall_at_k": {recall:?},
                            "pruned": {{"latency_ms": {{"p50": {p50:?}}}}}
                        }}
                    }}
                ]
            }}"#,
        ))
    }

    #[test]
    fn recall_leaf_is_higher_better_and_counts_stay_unclassified() {
        let old = scan_report(0.999, 8.0);
        let cmp = compare(&old, &scan_report(0.90, 8.0), 5.0).unwrap();
        let regressions = cmp.regressions();
        assert_eq!(regressions.len(), 1, "{:?}", cmp.deltas);
        assert_eq!(
            regressions[0].path,
            "workloads.synthetic-10k-quick.scan.recall_at_k"
        );
        assert_eq!(regressions[0].direction, Direction::HigherBetter);

        // A recall improvement is not a regression; probe counts are
        // configuration echoes and stay out of the gate.
        let cmp = compare(&old, &scan_report(1.0, 8.0), 5.0).unwrap();
        assert!(cmp.regressions().is_empty());
        assert!(cmp
            .deltas
            .iter()
            .all(|d| !d.path.ends_with("recall_probes") && !d.path.ends_with("recall_k")));

        // The pruned latency digest rides the existing latency rule.
        let cmp = compare(&old, &scan_report(0.999, 16.0), 5.0).unwrap();
        assert_eq!(cmp.regressions().len(), 1);
        assert!(cmp.regressions()[0].path.ends_with("latency_ms.p50"));
    }

    #[test]
    fn run_meta_capture_fills_every_field() {
        let meta = RunMeta::capture("w", 4);
        assert!(!meta.git_rev.is_empty());
        assert_eq!(meta.world, "w");
        assert_eq!(meta.threads, 4);
    }
}
