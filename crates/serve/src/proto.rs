//! The JSON wire protocol (`docs/serving.md` is the normative spec).
//!
//! Request fields that are optional on the wire are `Option` here; the
//! app layer applies defaults. Responses flatten the toolkit's richer
//! types ([`exrec_core::explanation::Explanation`], `Prediction`) into
//! plain JSON-friendly shapes so clients never need the Rust types.

use serde::{Deserialize, Serialize};

/// Body of `POST /v1/recommend`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecommendRequest {
    /// Users to rank for (raw ids). Must be non-empty.
    pub users: Vec<u32>,
    /// Top-k size; server default when omitted.
    pub n: Option<usize>,
    /// Explanation interface key (see `InterfaceId::key`); server
    /// default when omitted. Only consulted when `explain` is true.
    pub interface: Option<String>,
    /// When true, each returned item carries its explanation (served
    /// through `Explainer::recommend_explained_batch`; items the system
    /// cannot justify are withheld).
    pub explain: Option<bool>,
    /// Per-request deadline override, milliseconds.
    pub deadline_ms: Option<u64>,
    /// Fault injection (test only, requires `--fault-injection`):
    /// panic inside the handler to exercise worker isolation.
    pub inject_panic: Option<bool>,
    /// Fault injection (test only, requires `--fault-injection`):
    /// busy-wait this long inside the handler, honouring the deadline.
    pub inject_delay_ms: Option<u64>,
}

/// Body of `POST /v1/explain`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExplainRequest {
    /// The user the explanation addresses (raw id).
    pub user: u32,
    /// The item being explained (raw id).
    pub item: u32,
    /// Explanation interface key; server default when omitted.
    pub interface: Option<String>,
    /// Explanation aim (lowercased name, e.g. `"trust"`). When present
    /// and `interface` is omitted, the server picks the measurably
    /// best-fitting interface for the aim (`?aim=` on the URL is an
    /// equivalent spelling).
    pub aim: Option<String>,
    /// Per-request deadline override, milliseconds.
    pub deadline_ms: Option<u64>,
    /// Fault injection (test only, requires `--fault-injection`).
    pub inject_panic: Option<bool>,
    /// Fault injection (test only, requires `--fault-injection`).
    pub inject_delay_ms: Option<u64>,
}

/// Body of `POST /v1/rate`: one rating write.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RateRequest {
    /// The rating user (raw id).
    pub user: u32,
    /// The rated item (raw id).
    pub item: u32,
    /// The rating on the world's scale; omit (or send `null`) to
    /// retract the user's existing rating of the item.
    pub value: Option<f64>,
    /// Per-request deadline override, milliseconds.
    pub deadline_ms: Option<u64>,
}

/// One write inside `POST /v1/rate/batch`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RateOpBody {
    /// The rating user (raw id).
    pub user: u32,
    /// The rated item (raw id).
    pub item: u32,
    /// The rating; omit to retract.
    pub value: Option<f64>,
}

/// Body of `POST /v1/rate/batch`: many writes journaled and applied as
/// one atomically-validated record (any invalid op rejects them all).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RateBatchRequest {
    /// The writes, applied in order. Must be non-empty.
    pub ops: Vec<RateOpBody>,
    /// Per-request deadline override, milliseconds.
    pub deadline_ms: Option<u64>,
}

/// Body of a 200 from `POST /v1/rate` and `POST /v1/rate/batch`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RateResponse {
    /// Rating deltas actually applied (a retract of an absent rating
    /// applies nothing and is not an error).
    pub applied: u64,
    /// Ops in the accepted record.
    pub ops: u64,
    /// Ratings-matrix revision after the write.
    pub revision: u64,
    /// Time the journal append took, nanoseconds (`0` when the server
    /// runs without `--wal-path`).
    pub wal_append_ns: u64,
    /// Journal size after the append; `null` without `--wal-path`.
    pub wal_size_bytes: Option<u64>,
}

/// An explanation flattened for the wire.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExplanationBody {
    /// Key of the interface that generated it.
    pub interface: String,
    /// Content style name.
    pub style: String,
    /// Names of the aims the interface declares.
    pub aims: Vec<String>,
    /// Plain-text rendering of the explanation document.
    pub text: String,
}

/// One recommended item on the wire.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScoredItem {
    /// Item id.
    pub item: u32,
    /// Predicted score on the model's rating scale.
    pub score: f64,
    /// Model confidence in `[0, 1]`.
    pub confidence: f64,
    /// Present when the request asked for explanations.
    pub explanation: Option<ExplanationBody>,
}

/// Ranked items for one requested user.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UserRecommendations {
    /// The user these are for.
    pub user: u32,
    /// Ranked best-first.
    pub items: Vec<ScoredItem>,
}

/// Body of a 200 from `POST /v1/recommend`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecommendResponse {
    /// Per-user results, in request order.
    pub results: Vec<UserRecommendations>,
}

/// Body of a 200 from `POST /v1/explain`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExplainResponse {
    /// Echoed user id.
    pub user: u32,
    /// Echoed item id.
    pub item: u32,
    /// Predicted score for the pair.
    pub score: f64,
    /// Model confidence in `[0, 1]`.
    pub confidence: f64,
    /// The aim that drove interface selection, echoed lowercased;
    /// `null` when the request named no aim.
    pub aim: Option<String>,
    /// The generated explanation.
    pub explanation: ExplanationBody,
}

/// Body of `GET /healthz`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HealthResponse {
    /// `"ok"` while serving, `"degraded"` when an SLO fast-burn window
    /// has tripped, `"draining"` once shutdown has begun.
    pub status: String,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Worker pool size.
    pub workers: usize,
    /// Admission queue capacity.
    pub queue_capacity: usize,
    /// Admission queue depth at snapshot time.
    pub queue_depth: usize,
    /// `queue_depth / queue_capacity` in `[0, 1]` — how close the edge
    /// is to shedding; load balancers should back off as this nears 1.
    pub queue_saturation: f64,
    /// Workers currently executing a request (not blocked on the
    /// queue) at snapshot time.
    pub busy_workers: usize,
    /// `busy_workers / workers` in `[0, 1]`.
    pub worker_saturation: f64,
    /// SLO standing per route over the last minute of sampler ticks
    /// (absent routes have not been sampled yet).
    pub slo: std::collections::BTreeMap<String, SloRouteBody>,
    /// Live explanation-quality standing; `None` when deserializing
    /// pre-quality payloads (the server always sends it).
    pub quality: Option<QualityStandingBody>,
    /// Watchdog incident standing; `status` is `"degraded"` exactly
    /// while an incident stands. `None` only when deserializing
    /// pre-watchdog payloads (the server always sends it).
    #[serde(default)]
    pub incidents: Option<IncidentStandingBody>,
    /// Build/run identity, correlatable with benchmark-report `meta`
    /// stamps. `None` only when deserializing pre-build payloads.
    #[serde(default)]
    pub build: Option<BuildInfoBody>,
}

/// Watchdog standing in `GET /healthz`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IncidentStandingBody {
    /// Incidents currently open (latched rules).
    pub active: u64,
    /// Incidents opened since start (monotonic, unbounded).
    pub opened: u64,
    /// Flight-recorder dumps fired through the unified trigger path.
    pub flight_dumps: u64,
    /// Rule name of the most recently opened incident still retained.
    pub last_rule: Option<String>,
}

/// Build/run identity served from `/healthz` and `/debug/world`: the
/// same `git_rev`/`world`/`threads` stamp benchmark reports carry
/// (`exrec_obs::RunMeta`), plus the wire-schema versions this build
/// speaks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BuildInfoBody {
    /// Short git revision of the running build (`"unknown"` outside a
    /// git checkout).
    pub git_rev: String,
    /// Compact served-world shape, `users x items @ density`.
    pub world: String,
    /// Edge worker threads.
    pub threads: usize,
    /// Flight-recorder record schema version.
    pub flight_schema: u32,
    /// Time-series snapshot schema version.
    pub ts_schema: u32,
    /// Incident-log schema version.
    pub watch_schema: u32,
}

/// Body of a 200 from `GET /debug/incidents`: the watchdog's bounded
/// incident log plus standing counters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DebugIncidentsBody {
    /// Incident-log schema version.
    pub schema: u32,
    /// Bounded log capacity (oldest incidents evicted past this).
    pub capacity: usize,
    /// Incidents opened since start (monotonic, unbounded).
    pub opened: u64,
    /// Incidents currently open.
    pub active: u64,
    /// Flight dumps fired through the unified trigger path.
    pub flight_dumps: u64,
    /// Retained incidents, oldest first.
    pub incidents: Vec<exrec_obs::Incident>,
}

/// Live explanation-quality standing, as `/healthz` reports it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QualityStandingBody {
    /// Explanations probed since start.
    pub samples: u64,
    /// Rolling mean scalar quality score in `[0, 1]`.
    pub mean_score: f64,
    /// Current consecutive-low-sample streak.
    pub low_streak: u64,
    /// Whether a `quality_sustained_low.<interface>` watchdog incident
    /// stands.
    pub sustained_low: bool,
}

/// Body of a 200 from `GET /debug/profile` (JSON form; send
/// `Accept: text/plain` for bare collapsed-stack text instead).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DebugProfileBody {
    /// One aggregated phase tree per route served so far.
    pub routes: Vec<exrec_obs::PhaseSnapshot>,
    /// The same trees as collapsed-stack text (`stack self_ns` lines),
    /// the input format of flamegraph tooling.
    pub collapsed: String,
}

/// Body of a 200 from `GET /debug/requests`: the flight recorder's
/// resident window.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DebugRequestsBody {
    /// Ring capacity (last N requests retained).
    pub capacity: usize,
    /// Requests recorded since start (monotonic, unbounded).
    pub recorded: u64,
    /// Resident records, oldest first.
    pub requests: Vec<exrec_obs::RequestRecord>,
}

/// Body of a 200 from `GET /debug/world`: the served world's shape and
/// the serving configuration actually in effect.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DebugWorldBody {
    /// Users in the served world.
    pub users: usize,
    /// Items in the served catalog.
    pub items: usize,
    /// Observed ratings.
    pub ratings: usize,
    /// Ratings-matrix revision (bumps on every applied write).
    pub ratings_revision: u64,
    /// Serving model name.
    pub model: String,
    /// Default explanation interface key.
    pub default_interface: String,
    /// Edge worker threads.
    pub workers: usize,
    /// Intra-request batch pool threads.
    pub pool_threads: usize,
    /// Admission queue capacity.
    pub queue_capacity: usize,
    /// Neighbour-scan engine standing; `None` when the model runs the
    /// seed's brute per-pair path (and when deserializing pre-kernel
    /// payloads).
    pub scan: Option<ScanStatsBody>,
    /// Build/run identity (same stamp as `/healthz`). `None` only when
    /// deserializing pre-build payloads.
    #[serde(default)]
    pub build: Option<BuildInfoBody>,
}

/// Neighbour-scan engine standing in `GET /debug/world` (the kernel
/// and candidate index of `docs/kernels.md`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScanStatsBody {
    /// Serving scan mode: `"exact"` or `"pruned"`.
    pub mode: String,
    /// Candidate-index (re)builds since start.
    pub index_builds: u64,
    /// Shape of the resident candidate index, if one has been built.
    pub index: Option<IndexShapeBody>,
    /// Exact scans served (including pruned fallbacks).
    pub exact_scans: u64,
    /// Pruned scans served.
    pub pruned_scans: u64,
    /// Pruned requests that fell back to the exact scan because the
    /// candidate set was too small for the neighbourhood size.
    pub exact_fallbacks: u64,
    /// Kernel tiles visited, cumulative.
    pub tiles_visited: u64,
    /// Candidate users scored, cumulative.
    pub candidates_scored: u64,
    /// Fraction of the user dimension the last pruned scan skipped
    /// (`0.0` until a pruned scan runs).
    pub prune_ratio: f64,
    /// Ratings-matrix revisions the resident candidate index is behind
    /// (`0` = in sync; `None` until an index is built, and always in
    /// exact mode, which has none). Scans read the matrix itself and
    /// never lag; non-zero here means writes have landed that the next
    /// pruned scan's index will absorb — by reassignment if the delta
    /// chain is intact and under the drift threshold, otherwise by full
    /// rebuild.
    #[serde(default)]
    pub revision_lag: Option<u64>,
    /// Incremental candidate-index reassignments (vs. full rebuilds).
    #[serde(default)]
    pub index_patches: u64,
    /// Write deltas buffered for the next scan to absorb.
    #[serde(default)]
    pub pending_deltas: usize,
    /// Deltas absorbed into the resident index since its last full
    /// build (drives the drift-threshold rebuild decision).
    #[serde(default)]
    pub patched_since_build: u64,
}

/// Shape of the resident candidate index.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IndexShapeBody {
    /// Coarse k-means centroids.
    pub centroids: usize,
    /// Centroids probed per query.
    pub probes: usize,
}

/// Body of a 200 from `GET /debug/ingest`: the write path's standing —
/// lifetime ingest counts, the ratings revision they produced, and the
/// journal's shape when one is attached.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DebugIngestBody {
    /// Write requests admitted (`/v1/rate` + `/v1/rate/batch`).
    pub requests: u64,
    /// Rating deltas actually applied to the matrix.
    pub applied: u64,
    /// Write requests rejected by validation.
    pub rejected: u64,
    /// Current ratings-matrix revision.
    pub revision: u64,
    /// Whether startup warm-restarted from a compaction snapshot.
    pub snapshot_loaded: bool,
    /// The journal, when the server runs with `--wal-path`.
    pub wal: Option<WalBody>,
}

/// The write-ahead log's shape inside `GET /debug/ingest`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WalBody {
    /// Journal file path.
    pub path: String,
    /// Whether every append is fsynced (`--fsync`).
    pub fsync: bool,
    /// Journal size, bytes (header included).
    pub size_bytes: u64,
    /// Records appended since open.
    pub records: u64,
    /// Records replayed from the tail at open.
    pub replayed: u64,
    /// Torn-tail bytes truncated at open (`0` = clean).
    pub truncated_bytes: u64,
}

/// Body of a 200 from `GET /debug/quality`: the offline-measured
/// quality book, the live estimator, and the aim-fit selection
/// both currently imply.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DebugQualityBody {
    /// Offline/refreshed per-interface measurements backing selection,
    /// name-keyed, catalog order, unmeasurable interfaces included
    /// with `samples: 0`.
    pub offline: Vec<exrec_eval::quality::InterfaceQuality>,
    /// The live estimator's rolling snapshot.
    pub online: exrec_obs::QualitySnapshot,
    /// What `?aim=` would select right now, one row per aim.
    pub selection: Vec<AimSelectionBody>,
}

/// One aim's current selection standing in `GET /debug/quality`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AimSelectionBody {
    /// Lowercased aim name.
    pub aim: String,
    /// Interface key `?aim=` selects (measured argmax, falling back to
    /// the static default when nothing is measured).
    pub selected: String,
    /// The selected interface's measured score for the aim.
    pub score: f64,
    /// The static default: the first catalog interface declaring the
    /// aim, ignoring measurements.
    pub static_default: Option<String>,
    /// The static default's measured score for the aim.
    pub static_score: f64,
}

/// One route's SLO standing over the last minute of sampler ticks, as
/// reported by `/healthz`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SloRouteBody {
    /// Requests in the window that answered under 500 within the
    /// objective.
    pub good: u64,
    /// Total requests in the window.
    pub total: u64,
    /// `good / total` (1.0 on an empty window).
    pub good_ratio: f64,
    /// Error-budget burn rate over the window.
    pub burn_rate: f64,
    /// Burn rate over the newest tick alone, the one the route's
    /// `slo_fast_burn.<route>` rule judged last.
    pub fast_burn_rate: f64,
    /// Whether the route's `slo_fast_burn.<route>` incident stands.
    pub degraded: bool,
}

/// Error body for every non-2xx the server originates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Stable machine-readable class: `bad_request`, `not_found`,
    /// `unprocessable`, `shed`, `deadline_exceeded`, `panic`,
    /// `draining`, `method_not_allowed`, `body_too_large`.
    pub error: String,
    /// Human-readable detail.
    pub detail: String,
}

impl ErrorBody {
    /// Builds an error body.
    pub fn new(error: &str, detail: impl Into<String>) -> Self {
        ErrorBody {
            error: error.to_owned(),
            detail: detail.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommend_request_optional_fields_default_to_none() {
        let req: RecommendRequest = serde_json::from_str(r#"{"users": [1, 2]}"#).unwrap();
        assert_eq!(req.users, vec![1, 2]);
        assert!(req.n.is_none());
        assert!(req.interface.is_none());
        assert!(req.explain.is_none());
        assert!(req.deadline_ms.is_none());
        assert!(req.inject_panic.is_none());
    }

    #[test]
    fn explain_request_round_trips() {
        let req = ExplainRequest {
            user: 7,
            item: 9,
            interface: Some("clustered_histogram".to_owned()),
            aim: Some("trust".to_owned()),
            deadline_ms: Some(250),
            inject_panic: None,
            inject_delay_ms: None,
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: ExplainRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back.user, 7);
        assert_eq!(back.item, 9);
        assert_eq!(back.interface.as_deref(), Some("clustered_histogram"));
        assert_eq!(back.aim.as_deref(), Some("trust"));
        assert_eq!(back.deadline_ms, Some(250));
    }

    #[test]
    fn missing_required_field_is_an_error() {
        assert!(serde_json::from_str::<ExplainRequest>(r#"{"user": 1}"#).is_err());
    }
}
