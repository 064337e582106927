//! The threaded serving edge: acceptor → bounded queue → worker pool.
//!
//! ```text
//!          ┌──────────┐   try_push    ┌─────────────┐   pop   ┌─────────┐
//!  TCP ───▶│ acceptor │──────────────▶│ Bounded<Conn>│────────▶│ workers │──▶ app
//!          └──────────┘  Full → 429   └─────────────┘         └─────────┘
//! ```
//!
//! * **Admission control** — the acceptor never blocks on a full queue:
//!   it answers `429 Too Many Requests` + `Retry-After` on the spot and
//!   closes the connection (`serve.shed` counter).
//! * **Deadlines** — each request's budget starts when its connection
//!   was admitted (so queue wait counts); a spent budget yields `504`
//!   (`serve.timeout` counter) without doing the work.
//! * **Panic isolation** — the app call runs under `catch_unwind`; a
//!   panicking handler costs that request a `500` (`serve.panic`
//!   counter), never the worker.
//! * **Keep-alive** — workers serve a connection's requests back to
//!   back and reap it after `idle_timeout_ms` of silence (socket read
//!   timeout).
//! * **Graceful shutdown** — [`ServerHandle::request_shutdown`] flips
//!   the drain flag; the acceptor stops admitting and exits (closing
//!   the listener), workers drain the queue and finish in-flight
//!   requests (answering `Connection: close`), then
//!   [`ServerHandle::join`] returns.

use std::collections::BTreeMap;
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use exrec_obs::profile::{self, PhaseCollector, Profiler};
use exrec_obs::timeseries::Stat;
use exrec_obs::watch::{
    burn_rate, tick_burn, Detector, Rule, WatchConfig, Watchdog, SLO_WINDOW_NS,
};
use exrec_obs::{
    promtext, trace, Counter, FlightConfig, FlightRecorder, IdSource, IngestRecord,
    QualitySnapshot, RequestRecord, RunMeta, Telemetry, TimeSeries, TsConfig,
};

use exrec_core::aims::Aim;
use exrec_core::interfaces::InterfaceId;

use crate::app::{AppError, Deadline, ExplainApp};
use crate::http::{read_request, HttpError, Request, Response};
use crate::proto::{
    AimSelectionBody, BuildInfoBody, DebugIncidentsBody, DebugIngestBody, DebugProfileBody,
    DebugQualityBody, DebugRequestsBody, DebugWorldBody, ErrorBody, HealthResponse,
    IncidentStandingBody, IndexShapeBody, QualityStandingBody, ScanStatsBody, SloRouteBody,
    SweepPointBody, WalBody,
};
use crate::queue::{Bounded, Popped, PushError};

/// Tuning knobs of the serving edge.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks a free port (tests, perfbench).
    pub addr: String,
    /// Worker threads serving admitted connections.
    pub workers: usize,
    /// Admission queue capacity; the load-shedding threshold.
    pub queue_bound: usize,
    /// Default per-request deadline, milliseconds (requests may lower
    /// or raise it via `deadline_ms`, capped at `max_deadline_ms`).
    pub default_deadline_ms: u64,
    /// Largest client-supplied deadline honoured, milliseconds.
    pub max_deadline_ms: u64,
    /// Keep-alive connections idle longer than this are reaped.
    pub idle_timeout_ms: u64,
    /// Largest accepted request body, bytes.
    pub max_body_bytes: usize,
    /// Seed for the trace id stream; `None` seeds from entropy. Fixing
    /// it makes test trace ids deterministic.
    pub trace_seed: Option<u64>,
    /// Serve the `GET /debug/*` introspection surface. Off by default:
    /// the endpoints expose request payloads' shape and timings.
    pub debug_endpoints: bool,
    /// Completed requests the flight recorder retains.
    pub flight_capacity: usize,
    /// Time-series sampling interval and per-series retention. The
    /// sampler is always on (it costs two atomic reads per request when
    /// no tick is due); tune the interval with `--ts-interval`.
    pub ts: TsConfig,
    /// Anomaly-watchdog thresholds over the sampled series.
    pub watch: WatchTuning,
}

/// Thresholds for the watchdog's default rule set. Every rule reads a
/// series the edge already publishes; crossing a threshold for
/// `trip_after` consecutive ticks opens one latched incident (and one
/// flight dump), cleared after `clear_after` normal ticks.
///
/// The SLO is one `slo_fast_burn.<route>` rule per route: a request is
/// bad when it answers 5xx or takes longer than `slo_objective_ns` (a
/// 4xx is the server behaving correctly), and a tick is anomalous when
/// the route served at least [`exrec_obs::watch::BURN_MIN_REQUESTS`]
/// requests in it and burned its error budget at least
/// [`exrec_obs::watch::FAST_BURN`] times as fast as `slo_target`
/// allows. The fast window and the request guard are one sampler tick
/// (`TsConfig::interval_ns`), so a shorter tick needs a busier route to
/// page. Sustained-low quality is one `quality_sustained_low.<interface>`
/// floor rule per interface at the quality monitor's `low_threshold`,
/// judged only on ticks in which that interface was sampled.
#[derive(Debug, Clone)]
pub struct WatchTuning {
    /// Consecutive anomalous ticks before an incident opens.
    pub trip_after: u32,
    /// Consecutive normal ticks before a latched incident closes.
    pub clear_after: u32,
    /// z-score factor for p99 latency drift on read routes.
    pub latency_zscore: f64,
    /// Ticks of EWMA warmup before drift detection arms.
    pub zscore_warmup: u64,
    /// Ceiling on `serve.status.5xx` per second.
    pub error_rate_max: f64,
    /// Ceiling on `serve.shed` per second.
    pub shed_rate_max: f64,
    /// Latency objective, nanoseconds: a slower request is bad, and its
    /// flight record is written to stderr.
    pub slo_objective_ns: u64,
    /// Target good ratio; `1 - slo_target` is the error budget, so a
    /// target of 0 never trips a burn rule.
    pub slo_target: f64,
    /// Ceiling on the scan engine's `revision_lag` (matrix revisions
    /// the resident candidate index trails the live world by).
    pub revision_lag_max: f64,
    /// Floor under the pruned scan's `prune_ratio`.
    pub prune_ratio_min: f64,
    /// Healthy ticks before floor (`Below`) rules arm — ratios sit at
    /// zero before traffic exists, and a drop needs something to drop
    /// from.
    pub warmup_ticks: u64,
    /// Incidents retained in the bounded log.
    pub incident_capacity: usize,
}

impl Default for WatchTuning {
    fn default() -> Self {
        WatchTuning {
            trip_after: 2,
            clear_after: 3,
            latency_zscore: 6.0,
            zscore_warmup: 12,
            error_rate_max: 1.0,
            shed_rate_max: 100.0,
            slo_objective_ns: 250_000_000,
            slo_target: 0.99,
            revision_lag_max: 512.0,
            prune_ratio_min: 0.02,
            warmup_ticks: 10,
            incident_capacity: 64,
        }
    }
}

impl WatchTuning {
    /// The default rule set over the edge's sampled series; quality
    /// rules floor each interface's rolling score at `quality_floor`.
    fn rules(&self, quality_floor: f64) -> Vec<Rule> {
        let mut rules = Vec::new();
        for route in ["recommend", "explain"] {
            rules.push(Rule {
                name: format!("latency_drift.{route}"),
                metric: format!("serve.latency_ns.{route}"),
                stat: Stat::P99,
                detector: Detector::ZScore {
                    factor: self.latency_zscore,
                    min_samples: self.zscore_warmup,
                },
                evidence: None,
            });
        }
        rules.push(Rule {
            name: "error_rate".to_owned(),
            metric: "serve.status.5xx".to_owned(),
            stat: Stat::Rate,
            detector: Detector::Above {
                max: self.error_rate_max,
            },
            evidence: None,
        });
        rules.push(Rule {
            name: "shed_rate".to_owned(),
            metric: "serve.shed".to_owned(),
            stat: Stat::Rate,
            detector: Detector::Above {
                max: self.shed_rate_max,
            },
            evidence: None,
        });
        rules.push(Rule {
            name: "ingest_revision_lag".to_owned(),
            metric: "serve.ingest.revision_lag".to_owned(),
            stat: Stat::Value,
            detector: Detector::Above {
                max: self.revision_lag_max,
            },
            evidence: None,
        });
        rules.push(Rule {
            name: "scan_prune_ratio_collapse".to_owned(),
            metric: "scan.serve.prune_ratio".to_owned(),
            stat: Stat::Value,
            detector: Detector::Below {
                min: self.prune_ratio_min,
                min_samples: self.warmup_ticks,
            },
            evidence: None,
        });
        for route in endpoints() {
            rules.push(Rule {
                name: format!("slo_fast_burn.{route}"),
                metric: format!("serve.latency_ns.{route}"),
                stat: Stat::Count,
                detector: Detector::Burn {
                    bad: format!("slo.bad.{route}"),
                    target: self.slo_target,
                },
                evidence: None,
            });
        }
        // Each interface arms only on its own healthy history, so a
        // client switching interfaces is not a drop. Its rolling score
        // holds between samples, so only a tick with new samples of
        // the interface counts.
        for interface in InterfaceId::ALL {
            let key = interface.key();
            rules.push(Rule {
                name: format!("quality_sustained_low.{key}"),
                metric: format!("quality.score.{key}"),
                stat: Stat::Value,
                detector: Detector::Below {
                    min: quality_floor,
                    min_samples: self.warmup_ticks,
                },
                evidence: Some(format!("quality.samples.{key}")),
            });
        }
        rules
    }
}

/// Every routed request line, as `(method, path, endpoint)`: the
/// endpoint name is what the request is profiled, recorded and
/// SLO-tracked under.
const ROUTES: [(&str, &str, &str); 13] = [
    ("GET", "/healthz", "healthz"),
    ("GET", "/metrics", "metrics"),
    ("GET", "/debug/profile", "debug_profile"),
    ("GET", "/debug/requests", "debug_requests"),
    ("GET", "/debug/world", "debug_world"),
    ("GET", "/debug/quality", "debug_quality"),
    ("GET", "/debug/ingest", "debug_ingest"),
    ("GET", "/debug/timeseries", "debug_timeseries"),
    ("GET", "/debug/incidents", "debug_incidents"),
    ("POST", "/v1/recommend", "recommend"),
    ("POST", "/v1/explain", "explain"),
    ("POST", "/v1/rate", "rate"),
    ("POST", "/v1/rate/batch", "rate_batch"),
];

/// Every endpoint name, the two that answer unrouted requests included.
fn endpoints() -> impl Iterator<Item = &'static str> {
    let routed = ROUTES.iter().map(|&(_, _, endpoint)| endpoint);
    routed.chain(["method_not_allowed", "not_found"])
}

/// Whether a request spends SLO error budget: it answered 5xx, or took
/// longer than the objective.
fn slo_bad(status: u16, took_ns: u64, objective_ns: u64) -> bool {
    status >= 500 || took_ns > objective_ns
}

/// Files a completed request in the flight ring and, when it was bad by
/// the SLO, also writes its record to `log` as one JSON line in the
/// flight dump's format. Returns whether it was bad.
fn file_record(
    flight: &FlightRecorder,
    record: RequestRecord,
    objective_ns: u64,
    log: &mut dyn Write,
) -> bool {
    let bad = slo_bad(record.status, record.duration_ns, objective_ns);
    if bad {
        flight.record_logged(record, log);
    } else {
        flight.record(record);
    }
    bad
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:8787".to_owned(),
            workers: 4,
            queue_bound: 64,
            default_deadline_ms: 2_000,
            max_deadline_ms: 30_000,
            idle_timeout_ms: 5_000,
            max_body_bytes: 1 << 20,
            trace_seed: None,
            debug_endpoints: false,
            flight_capacity: 256,
            ts: TsConfig::default(),
            watch: WatchTuning::default(),
        }
    }
}

/// An admitted connection, stamped so queue wait counts against the
/// first request's deadline.
struct Conn {
    stream: TcpStream,
    admitted_at: Instant,
}

/// State shared by acceptor, workers and the handle.
struct Shared {
    app: ExplainApp,
    config: ServerConfig,
    telemetry: Telemetry,
    queue: Bounded<Conn>,
    draining: AtomicBool,
    started_at: Instant,
    /// Source of the per-request trace ids.
    ids: IdSource,
    /// `trace.flushed`: flight records written to stderr because the
    /// request was bad by the SLO.
    flushed: Counter,
    /// Workers currently executing a request (not blocked on the queue).
    busy: AtomicUsize,
    /// Always-on phase profiler (`GET /debug/profile`).
    profiler: Arc<Profiler>,
    /// Black-box ring of the last N completed requests.
    flight: Arc<FlightRecorder>,
    /// Bounded-ring time-series sampler, ticked cooperatively by the
    /// worker pool (`GET /debug/timeseries`).
    ts: TimeSeries,
    /// Anomaly watchdog + incident log — the unified flight-dump
    /// trigger path (rules over ticks, SLO fast burn and sustained-low
    /// quality among them; panics as events).
    watch: Arc<Watchdog>,
    /// Build/run identity served from `/healthz` and `/debug/world`.
    meta: RunMeta,
}

/// A running server; dropping it without calling
/// [`ServerHandle::shutdown`] detaches the threads.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Binds the listener and spawns the acceptor and worker threads.
///
/// # Errors
///
/// Propagates listener bind/configuration failures.
pub fn start(
    app: ExplainApp,
    config: ServerConfig,
    telemetry: Telemetry,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let flight = Arc::new(FlightRecorder::new(FlightConfig {
        capacity: config.flight_capacity,
        ..FlightConfig::default()
    }));
    let watch = Arc::new(
        Watchdog::new(
            WatchConfig {
                trip_after: config.watch.trip_after,
                clear_after: config.watch.clear_after,
                log_capacity: config.watch.incident_capacity,
                ..WatchConfig::default()
            },
            config
                .watch
                .rules(app.quality_monitor().config().low_threshold),
        )
        .with_flight(Arc::clone(&flight))
        .with_metrics(telemetry.metrics()),
    );
    let meta = RunMeta::capture(
        format!(
            "{}x{}@{}",
            app.n_users(),
            app.n_items(),
            app.config().density
        ),
        config.workers.max(1),
    );
    let shared = Arc::new(Shared {
        queue: Bounded::new(config.queue_bound),
        ids: match config.trace_seed {
            Some(seed) => IdSource::seeded(seed),
            None => IdSource::default(),
        },
        flushed: telemetry.metrics().counter("trace.flushed"),
        busy: AtomicUsize::new(0),
        profiler: Arc::new(Profiler::new()),
        flight,
        ts: TimeSeries::new(config.ts.clone()),
        watch,
        meta,
        app,
        config,
        telemetry,
        draining: AtomicBool::new(false),
        started_at: Instant::now(),
    });

    let workers = (0..shared.config.workers.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker")
        })
        .collect();
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("serve-acceptor".to_owned())
            .spawn(move || accept_loop(&listener, &shared))
            .expect("spawn acceptor")
    };

    Ok(ServerHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
        workers,
    })
}

impl ServerHandle {
    /// The bound address (resolves port `0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// Per-route SLO standing over the last minute of ticks (the
    /// `serve` binary prints this in its shutdown report).
    pub fn slo_snapshot(&self) -> BTreeMap<String, SloRouteBody> {
        slo_standing(&self.shared)
    }

    /// The always-on phase profiler behind `GET /debug/profile`.
    pub fn profiler(&self) -> &Arc<Profiler> {
        &self.shared.profiler
    }

    /// The live quality estimator's snapshot (the `serve` binary
    /// prints per-interface quality in its shutdown report).
    pub fn quality_snapshot(&self) -> QualitySnapshot {
        quality_snapshot(&self.shared)
    }

    /// The request flight recorder behind `GET /debug/requests`; the
    /// watchdog dumps it once per incident.
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.shared.flight
    }

    /// The anomaly watchdog behind `GET /debug/incidents`. The `serve`
    /// binary chains it into the process panic hook
    /// ([`Watchdog::install_panic_hook`]) so panics enter the same
    /// incident log as every other trigger.
    pub fn watchdog(&self) -> &Arc<Watchdog> {
        &self.shared.watch
    }

    /// The time-series sampler behind `GET /debug/timeseries`.
    pub fn timeseries(&self) -> &TimeSeries {
        &self.shared.ts
    }

    /// Begins a graceful drain: stop admitting, let workers finish.
    /// Idempotent; returns immediately. Call [`ServerHandle::join`] to
    /// wait for completion, or [`ServerHandle::shutdown`] for both.
    pub fn request_shutdown(&self) {
        if self.shared.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor's blocking accept() with a wake-up
        // connection; it observes the flag and exits.
        let _ = TcpStream::connect(self.addr);
    }

    /// Waits for the drain to complete: acceptor gone (listener
    /// closed), queue drained, in-flight requests answered. With a
    /// journal attached, the drained world is then compacted (snapshot
    /// beside the WAL, log emptied) so the next start warm-restarts
    /// from the snapshot alone; the result is returned (`None` without
    /// `--wal-path`) and safe to ignore — a failed compaction leaves
    /// the journal intact, costing the next start a replay, not data.
    pub fn join(mut self) -> Option<Result<std::path::PathBuf, exrec_types::Error>> {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Acceptor is gone: nothing new can be admitted. Close the
        // queue so workers drain the remainder and exit.
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Every write is drained: the snapshot captures them all.
        self.shared.app.compact().transpose()
    }

    /// [`ServerHandle::request_shutdown`] + [`ServerHandle::join`].
    pub fn shutdown(self) {
        self.request_shutdown();
        let _ = self.join();
    }
}

/// Accepts connections, admitting them to the queue or shedding.
fn accept_loop(listener: &TcpListener, shared: &Shared) {
    let metrics = shared.telemetry.metrics();
    let accepted = metrics.counter("serve.accepted");
    let shed = metrics.counter("serve.shed");
    let depth_gauge = metrics.gauge("serve.queue_depth");
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.draining.load(Ordering::SeqCst) {
            // The wake-up poke (or a straggler); refuse politely.
            refuse(stream, 503, "draining", "server is shutting down", None);
            return;
        }
        accepted.incr();
        match shared.queue.try_push(Conn {
            stream,
            admitted_at: Instant::now(),
        }) {
            Ok(depth) => depth_gauge.set(depth as f64),
            Err(PushError::Full(conn)) => {
                shed.incr();
                // Shed requests never reach a worker (no trace, no
                // profile), but the black box still remembers them.
                shared.flight.record(RequestRecord {
                    seq: 0,
                    trace_id: String::new(),
                    route: "admission".to_owned(),
                    status: 429,
                    outcome: RequestRecord::outcome_of(429).to_owned(),
                    start_offset_ns: trace::offset_ns_of(conn.admitted_at),
                    duration_ns: duration_ns(conn.admitted_at.elapsed()),
                    phases: Vec::new(),
                    quality: None,
                    ingest: None,
                });
                refuse(conn.stream, 429, "shed", "admission queue is full", Some(1));
            }
            Err(PushError::Closed(conn)) => {
                refuse(
                    conn.stream,
                    503,
                    "draining",
                    "server is shutting down",
                    None,
                );
                return;
            }
        }
    }
}

/// Writes a one-shot refusal on a connection the queue never saw.
/// Best-effort: a peer that vanished mid-shed is already satisfied.
///
/// Closing a socket whose request is still unread makes the kernel
/// send a reset, which drops any of the response not yet sent and can
/// fail the client's read. So the response goes out unbatched, the
/// write side is half-closed, and up to 64 KiB the client already sent
/// is discarded, without waiting for more, before the socket closes.
fn refuse(stream: TcpStream, status: u16, error: &str, detail: &str, retry_after: Option<u64>) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_nodelay(true);
    let mut response = Response::json(status, &ErrorBody::new(error, detail));
    if let Some(seconds) = retry_after {
        response = response.with_retry_after(seconds);
    }
    let mut stream = stream;
    let _ = response.write_to(&mut stream, false);
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_nonblocking(true);
    let _ = io::copy(&mut (&stream).take(64 * 1024), &mut io::sink());
}

/// One worker: pop admitted connections and serve them to completion.
/// The pop wait is bounded so an otherwise-idle pool still drives the
/// cooperative sampler tick; both arms call [`maybe_tick`], and the
/// loop exits with the queue closed and drained — the tick dies with
/// the pool, which is exactly the clean-SIGTERM story.
fn worker_loop(shared: &Shared) {
    let depth_gauge = shared.telemetry.metrics().gauge("serve.queue_depth");
    let wait = Duration::from_nanos(shared.config.ts.interval_ns.clamp(1_000_000, 250_000_000));
    loop {
        match shared.queue.pop_timeout(wait) {
            Popped::Item(conn) => {
                // The acceptor resynced the gauge at push; one pop is a
                // −1 transition, no queue lock needed.
                depth_gauge.sub(1.0);
                serve_connection(shared, conn);
                maybe_tick(shared);
            }
            Popped::TimedOut => maybe_tick(shared),
            Popped::Closed => return,
        }
    }
}

/// Drives one cooperative sampler tick if due: refreshes the derived
/// gauges the detectors read, cuts the time-series sample (CAS-claimed,
/// so exactly one caller wins), runs the watchdog over it and refreshes
/// the `slo.*` gauges from the rings. The not-due path is two atomic
/// loads.
fn maybe_tick(shared: &Shared) {
    if !shared.ts.due() {
        return;
    }
    refresh_derived_gauges(shared);
    let metrics = shared.telemetry.metrics();
    if let Some(tick) = shared.ts.maybe_sample(metrics) {
        shared.watch.observe(&tick);
        for (route, st) in slo_standing(shared) {
            metrics
                .gauge(&format!("slo.good_ratio.{route}"))
                .set(st.good_ratio);
            metrics
                .gauge(&format!("slo.burn_rate.{route}"))
                .set(st.burn_rate);
            metrics
                .gauge(&format!("slo.window_good.{route}"))
                .set(st.good as f64);
            metrics
                .gauge(&format!("slo.window_total.{route}"))
                .set(st.total as f64);
        }
    }
}

/// Each route's SLO standing over the last [`SLO_WINDOW_NS`] of ticks,
/// read from the time-series rings the burn rules judge: requests from
/// the route's latency histogram, bad ones from its `slo.bad.<route>`
/// counter, `fast_burn_rate` as the burn rule judged the newest tick,
/// and `degraded` from whether its incident stands. Routes the sampler
/// has not seen yet are absent.
fn slo_standing(shared: &Shared) -> BTreeMap<String, SloRouteBody> {
    let target = shared.config.watch.slo_target;
    let standing = shared.watch.standing();
    let ts = &shared.ts;
    endpoints()
        .filter_map(|route| {
            let (tick_total, total) =
                ts.totals(&format!("serve.latency_ns.{route}"), SLO_WINDOW_NS)?;
            let (tick_bad, bad) = ts
                .totals(&format!("slo.bad.{route}"), SLO_WINDOW_NS)
                .unwrap_or_default();
            let good = total - bad.min(total);
            let rule = format!("slo_fast_burn.{route}");
            let body = SloRouteBody {
                good,
                total,
                good_ratio: if total == 0 {
                    1.0
                } else {
                    good as f64 / total as f64
                },
                burn_rate: burn_rate(bad, total, target),
                fast_burn_rate: tick_burn(tick_bad, tick_total, target),
                degraded: standing.contains(&rule.as_str()),
            };
            Some((route.to_owned(), body))
        })
        .collect()
}

/// The live quality estimator's snapshot, with `sustained_low` set when
/// any interface's `quality_sustained_low.*` incident stands.
fn quality_snapshot(shared: &Shared) -> QualitySnapshot {
    let mut snapshot = shared.app.quality_monitor().snapshot();
    snapshot.sustained_low = shared
        .watch
        .standing()
        .iter()
        .any(|rule| rule.starts_with("quality_sustained_low."));
    snapshot
}

/// Publishes the point-in-time candidate-index revision lag, which only
/// exists as a method call on the app, so the sampler and the watchdog
/// see it as an ordinary series. Runs only on due ticks.
fn refresh_derived_gauges(shared: &Shared) {
    let metrics = shared.telemetry.metrics();
    if let Some(stats) = shared.app.scan_stats() {
        if let Some(index) = stats.index_revision {
            let lag = shared.app.ratings_revision().saturating_sub(index);
            metrics.gauge("serve.ingest.revision_lag").set(lag as f64);
        }
    }
}

/// Serves every request on one connection (keep-alive loop).
fn serve_connection(shared: &Shared, conn: Conn) {
    let metrics = shared.telemetry.metrics();
    metrics.counter("serve.connections").incr();
    let stream = conn.stream;
    let idle = Duration::from_millis(shared.config.idle_timeout_ms.max(1));
    if stream.set_read_timeout(Some(idle)).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    // The first request's deadline starts at admission: time spent in
    // the queue is part of the latency the client observes. The wait
    // itself (admission → this worker popping the connection) is
    // captured here and reported as the first request's `queue_wait`
    // phase.
    let mut request_start = Some(conn.admitted_at);
    let mut queue_wait = Some(conn.admitted_at.elapsed());

    loop {
        let read_started = Instant::now();
        let request = read_request(&mut reader, shared.config.max_body_bytes);
        let parse_took = read_started.elapsed();
        let started = request_start.take().unwrap_or_else(Instant::now);
        match request {
            Ok(None) => return, // peer closed cleanly
            Err(e) if e.is_timeout() => {
                metrics.counter("serve.idle_reaped").incr();
                return;
            }
            Err(HttpError::Io(_)) => return,
            Err(HttpError::BodyTooLarge { declared, limit }) => {
                let body = ErrorBody::new(
                    "body_too_large",
                    format!("declared {declared} bytes, limit {limit}"),
                );
                let _ = Response::json(413, &body).write_to(&mut writer, false);
                return;
            }
            Err(HttpError::Malformed(detail)) => {
                let _ = Response::json(400, &ErrorBody::new("bad_request", detail))
                    .write_to(&mut writer, false);
                return;
            }
            Ok(Some(request)) => {
                let trace_hex = trace::trace_id_hex(shared.ids.next_trace_id());
                let wait = queue_wait.take();
                let collector = Arc::new(PhaseCollector::new());
                let busy_gauge = metrics.gauge("serve.busy_workers");
                shared.busy.fetch_add(1, Ordering::Relaxed);
                busy_gauge.add(1.0);
                let (response, endpoint, ingest) = dispatch(shared, &request, started, &collector);
                shared.busy.fetch_sub(1, Ordering::Relaxed);
                busy_gauge.sub(1.0);
                // First request on the connection: its wall clock runs
                // from admission, so the pre-dispatch time (queue wait,
                // request read + parse) is attributable now that the
                // route is known. Later keep-alive requests start their
                // clock after the read, so only `handle` applies.
                if let Some(wait) = wait {
                    shared
                        .profiler
                        .record_external(endpoint, "queue_wait", wait);
                    collector.add("queue_wait", wait);
                    shared
                        .profiler
                        .record_external(endpoint, "parse", parse_took);
                    collector.add("parse", parse_took);
                }
                let response = response.with_header("x-exrec-trace-id", trace_hex.clone());
                let keep_alive =
                    request.wants_keep_alive() && !shared.draining.load(Ordering::SeqCst);
                record(
                    shared,
                    endpoint,
                    response.status,
                    started.elapsed(),
                    &trace_hex,
                    started,
                    &collector,
                    ingest,
                );
                if response.write_to(&mut writer, keep_alive).is_err() || !keep_alive {
                    return;
                }
                metrics.counter("serve.keepalive_reuse").incr();
            }
        }
    }
}

/// Saturating `Duration` → whole nanoseconds.
fn duration_ns(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Records the per-request metrics every endpoint shares and files the
/// request's flight record, before the client sees the response. A
/// request bad by the SLO is counted against its route (the burn rules
/// judge that series on the next tick) and its record is written to
/// stderr, counted in `trace.flushed`.
#[allow(clippy::too_many_arguments)]
fn record(
    shared: &Shared,
    endpoint: &'static str,
    status: u16,
    took: Duration,
    trace_hex: &str,
    started: Instant,
    collector: &PhaseCollector,
    ingest: Option<IngestRecord>,
) {
    let metrics = shared.telemetry.metrics();
    metrics.counter("serve.requests").incr();
    metrics
        .histogram(&format!("serve.latency_ns.{endpoint}"))
        .record(took);
    metrics
        .counter(&format!("serve.status.{}xx", status / 100))
        .incr();
    let record = RequestRecord {
        seq: 0,
        trace_id: trace_hex.to_owned(),
        route: endpoint.to_owned(),
        status,
        outcome: RequestRecord::outcome_of(status).to_owned(),
        start_offset_ns: trace::offset_ns_of(started),
        duration_ns: duration_ns(took),
        phases: collector.phases(),
        quality: collector.quality(),
        ingest,
    };
    let objective_ns = shared.config.watch.slo_objective_ns;
    if file_record(&shared.flight, record, objective_ns, &mut io::stderr()) {
        metrics.counter(&format!("slo.bad.{endpoint}")).incr();
        shared.flushed.incr();
    }
    // Busy traffic drives the sampler from the request path too, so
    // tick cadence never depends on a worker going idle.
    maybe_tick(shared);
}

/// Routes one parsed request, isolating handler panics. The endpoint
/// name resolves first so the entire handler runs under the route's
/// profiling context ([`Profiler::route`]) inside a `handle` phase —
/// the inner phases (`admit`, `scan`, `evidence`, …) nest beneath it.
fn dispatch(
    shared: &Shared,
    request: &Request,
    started: Instant,
    collector: &Arc<PhaseCollector>,
) -> (Response, &'static str, Option<IngestRecord>) {
    // The request target may carry a query string (`?aim=trust`);
    // routes match on the bare path, handlers see the query.
    let (path, query) = match request.path.split_once('?') {
        Some((path, query)) => (path, Some(query)),
        None => (request.path.as_str(), None),
    };
    let endpoint = match ROUTES.iter().find(|&&(_, route, _)| route == path) {
        Some(&(method, _, endpoint)) if method == request.method => endpoint,
        Some(_) => "method_not_allowed",
        None => "not_found",
    };
    let _route = shared.profiler.route(endpoint, Arc::clone(collector));
    let _handle = profile::phase("handle");
    let mut ingest = None;
    let response = match endpoint {
        "healthz" => health(shared),
        "metrics" => metrics_response(shared, request),
        "debug_profile" => debug_profile(shared, request),
        "debug_requests" => debug_requests(shared),
        "debug_world" => debug_world(shared),
        "debug_quality" => debug_quality(shared),
        "debug_ingest" => debug_ingest(shared),
        "debug_timeseries" => debug_timeseries(shared),
        "debug_incidents" => debug_incidents(shared),
        "recommend" | "explain" | "rate" | "rate_batch" => {
            let (response, ingested) = handle_post(shared, request, started, endpoint, query);
            ingest = ingested;
            response
        }
        "method_not_allowed" => Response::json(
            405,
            &ErrorBody::new(
                "method_not_allowed",
                format!("{} not allowed", request.method),
            ),
        ),
        _ => Response::json(
            404,
            &ErrorBody::new("not_found", format!("no route {}", request.path)),
        ),
    };
    (response, endpoint, ingest)
}

/// The refusal every `/debug/*` handler answers when the surface is
/// off (the default): the endpoints expose payload shapes and timings.
fn debug_disabled() -> Response {
    Response::json(
        403,
        &ErrorBody::new(
            "debug_disabled",
            "debug endpoints require --debug-endpoints",
        ),
    )
}

/// `GET /debug/profile`: collapsed-stack text under `Accept:
/// text/plain` (pipe straight into flamegraph tooling), otherwise JSON
/// with both the per-route phase trees and the collapsed rendering.
fn debug_profile(shared: &Shared, request: &Request) -> Response {
    if !shared.config.debug_endpoints {
        return debug_disabled();
    }
    let wants_text = request
        .header("accept")
        .is_some_and(|accept| accept.contains("text/plain"));
    if wants_text {
        Response::text(
            200,
            shared.profiler.collapsed(),
            "text/plain; charset=utf-8",
        )
    } else {
        Response::json(
            200,
            &DebugProfileBody {
                routes: shared.profiler.snapshot().routes,
                collapsed: shared.profiler.collapsed(),
            },
        )
    }
}

/// `GET /debug/requests`: the flight recorder's resident window,
/// oldest first.
fn debug_requests(shared: &Shared) -> Response {
    if !shared.config.debug_endpoints {
        return debug_disabled();
    }
    Response::json(
        200,
        &DebugRequestsBody {
            capacity: shared.flight.capacity(),
            recorded: shared.flight.recorded(),
            requests: shared.flight.snapshot(),
        },
    )
}

/// `GET /debug/quality`: the measured quality book behind aim-fit
/// selection, the live sampled estimator's snapshot, and the selection
/// both currently imply per aim.
fn debug_quality(shared: &Shared) -> Response {
    if !shared.config.debug_endpoints {
        return debug_disabled();
    }
    let app = &shared.app;
    let book = app.quality_book();
    let offline = InterfaceId::ALL
        .into_iter()
        .filter_map(|id| book.measured(id.key()))
        .collect();
    let selection = Aim::ALL
        .into_iter()
        .map(|aim| {
            let static_default = exrec_registry::quality::static_default_for_aim(aim);
            let (selected, score) = match book.select_for_aim(aim) {
                Some((id, score)) => (id, score),
                None => (
                    static_default.unwrap_or(app.config().default_interface),
                    0.0,
                ),
            };
            AimSelectionBody {
                aim: aim.name().to_ascii_lowercase(),
                selected: selected.key().to_owned(),
                score,
                static_default: static_default.map(|id| id.key().to_owned()),
                static_score: static_default
                    .map(|id| book.aim_score(id, aim))
                    .unwrap_or(0.0),
            }
        })
        .collect();
    Response::json(
        200,
        &DebugQualityBody {
            offline,
            online: quality_snapshot(shared),
            selection,
        },
    )
}

/// `GET /debug/ingest`: the write path's standing — lifetime counts,
/// the revision they produced, and the journal's shape.
fn debug_ingest(shared: &Shared) -> Response {
    if !shared.config.debug_endpoints {
        return debug_disabled();
    }
    let app = &shared.app;
    let (requests, applied, rejected) = app.ingest_counts();
    Response::json(
        200,
        &DebugIngestBody {
            requests,
            applied,
            rejected,
            revision: app.ratings_revision(),
            snapshot_loaded: app.snapshot_loaded(),
            wal: app.wal_stats().map(|stats| WalBody {
                path: app
                    .wal_path()
                    .map(|p| p.display().to_string())
                    .unwrap_or_default(),
                fsync: app.config().fsync,
                size_bytes: stats.size_bytes,
                records: stats.records,
                replayed: stats.replayed,
                truncated_bytes: stats.truncated_bytes,
            }),
        },
    )
}

/// `GET /debug/timeseries`: every retained series — counter rates,
/// gauge samples, windowed histogram percentiles — straight from the
/// sampler's rings.
fn debug_timeseries(shared: &Shared) -> Response {
    if !shared.config.debug_endpoints {
        return debug_disabled();
    }
    Response::json(200, &shared.ts.snapshot())
}

/// `GET /debug/incidents`: the watchdog's bounded incident log plus
/// its standing counters.
fn debug_incidents(shared: &Shared) -> Response {
    if !shared.config.debug_endpoints {
        return debug_disabled();
    }
    Response::json(
        200,
        &DebugIncidentsBody {
            schema: exrec_obs::watch::WATCH_SCHEMA,
            capacity: shared.watch.log_capacity(),
            opened: shared.watch.opened(),
            active: shared.watch.active(),
            flight_dumps: shared.watch.flight_dumps(),
            incidents: shared.watch.incidents(),
        },
    )
}

/// The build/version stamp shared by `/healthz` and `/debug/world`.
fn build_body(shared: &Shared) -> BuildInfoBody {
    BuildInfoBody {
        git_rev: shared.meta.git_rev.clone(),
        world: shared.meta.world.clone(),
        threads: shared.meta.threads,
        flight_schema: exrec_obs::flight::RECORD_SCHEMA,
        ts_schema: exrec_obs::timeseries::TS_SCHEMA,
        watch_schema: exrec_obs::watch::WATCH_SCHEMA,
    }
}

/// `GET /debug/world`: the served world's shape and effective serving
/// configuration.
fn debug_world(shared: &Shared) -> Response {
    if !shared.config.debug_endpoints {
        return debug_disabled();
    }
    let app = &shared.app;
    Response::json(
        200,
        &DebugWorldBody {
            users: app.n_users(),
            items: app.n_items(),
            ratings: app.n_ratings(),
            ratings_revision: app.ratings_revision(),
            model: app.model_name().to_owned(),
            default_interface: app.config().default_interface.key().to_owned(),
            workers: shared.config.workers.max(1),
            pool_threads: app.pool_threads(),
            queue_capacity: shared.queue.capacity(),
            scan: scan_body(app),
            build: Some(build_body(shared)),
        },
    )
}

/// The neighbour-scan engine's standing as a wire body for
/// `/debug/world`. `None` when the model runs the brute per-pair path.
fn scan_body(app: &ExplainApp) -> Option<ScanStatsBody> {
    let matrix_revision = app.ratings_revision();
    app.scan_stats().map(|stats| ScanStatsBody {
        mode: app.scan_mode().to_owned(),
        tile_users: stats.tile_users,
        sweep: stats
            .sweep
            .iter()
            .map(|&(tile_users, elapsed_ns)| SweepPointBody {
                tile_users,
                elapsed_ns,
            })
            .collect(),
        index_builds: stats.index_builds,
        index: stats
            .index_shape
            .map(|(centroids, probes)| IndexShapeBody { centroids, probes }),
        exact_scans: stats.exact_scans,
        pruned_scans: stats.pruned_scans,
        exact_fallbacks: stats.exact_fallbacks,
        tiles_visited: stats.tiles_visited,
        candidates_scored: stats.candidates_scored,
        prune_ratio: stats.last_prune_ratio,
        // How far the resident candidate index trails the live matrix
        // right now; scans read the matrix itself.
        revision_lag: stats
            .index_revision
            .map(|index| matrix_revision.saturating_sub(index)),
        index_patches: stats.index_patches,
        pending_deltas: stats.pending_deltas,
        patched_since_build: stats.patched_since_build,
    })
}

/// `GET /metrics`: Prometheus text exposition when the client sends
/// `Accept: text/plain`, the JSON report otherwise.
fn metrics_response(shared: &Shared, request: &Request) -> Response {
    let wants_text = request
        .header("accept")
        .is_some_and(|accept| accept.contains("text/plain"));
    if wants_text {
        Response::text(
            200,
            promtext::render(shared.telemetry.metrics()),
            "text/plain; version=0.0.4",
        )
    } else {
        Response::json(200, &shared.telemetry.report())
    }
}

/// `GET /healthz`: degraded exactly when a watchdog incident stands
/// (SLO burn and quality drops are rules like any other), draining once
/// shutdown began.
fn health(shared: &Shared) -> Response {
    let quality = quality_snapshot(shared);
    let active_incidents = shared.watch.active();
    let status = if shared.draining.load(Ordering::SeqCst) {
        "draining"
    } else if active_incidents > 0 {
        "degraded"
    } else {
        "ok"
    };
    let workers = shared.config.workers.max(1);
    let queue_depth = shared.queue.len();
    let queue_capacity = shared.queue.capacity();
    // This handler runs on a worker, so busy includes the health check
    // itself — truthful, if humbling.
    let busy_workers = shared.busy.load(Ordering::Relaxed).min(workers);
    Response::json(
        200,
        &HealthResponse {
            status: status.to_owned(),
            uptime_ms: shared.started_at.elapsed().as_millis() as u64,
            workers,
            queue_capacity,
            queue_depth,
            queue_saturation: queue_depth as f64 / queue_capacity.max(1) as f64,
            busy_workers,
            worker_saturation: busy_workers as f64 / workers as f64,
            slo: slo_standing(shared),
            quality: Some(QualityStandingBody {
                samples: quality.samples,
                sample_every: quality.sample_every,
                mean_score: quality.mean_score,
                low_streak: quality.low_streak,
                sustained_low: quality.sustained_low,
            }),
            incidents: Some(IncidentStandingBody {
                active: active_incidents,
                opened: shared.watch.opened(),
                flight_dumps: shared.watch.flight_dumps(),
                last_rule: shared.watch.incidents().last().map(|i| i.rule.clone()),
            }),
            build: Some(build_body(shared)),
        },
    )
}

/// Extracts one `key=value` pair from a raw query string. Aim names
/// and interface keys are plain lowercase words, so no percent
/// decoding is attempted.
fn query_param<'a>(query: Option<&'a str>, key: &str) -> Option<&'a str> {
    query?.split('&').find_map(|kv| {
        let (k, v) = kv.split_once('=')?;
        (k == key && !v.is_empty()).then_some(v)
    })
}

/// Parses, deadline-checks and runs one POST body under `catch_unwind`.
/// Write routes also return the flight recorder's ingest detail.
fn handle_post(
    shared: &Shared,
    request: &Request,
    started: Instant,
    endpoint: &'static str,
    query: Option<&str>,
) -> (Response, Option<IngestRecord>) {
    // Admission: body decode, JSON parse, deadline arithmetic — all
    // before the model runs.
    let admit = profile::phase("admit");
    let body = match std::str::from_utf8(&request.body) {
        Ok(body) => body,
        Err(_) => {
            return (
                Response::json(400, &ErrorBody::new("bad_request", "body is not UTF-8")),
                None,
            );
        }
    };
    let metrics = shared.telemetry.metrics();

    // Parse first so the deadline can honour the request's own budget.
    enum Parsed {
        Recommend(crate::proto::RecommendRequest),
        Explain(crate::proto::ExplainRequest),
        Rate(crate::proto::RateRequest),
        RateBatch(crate::proto::RateBatchRequest),
    }
    fn bad_json(e: &serde_json::Error) -> (Response, Option<IngestRecord>) {
        (
            Response::json(
                400,
                &ErrorBody::new("bad_request", format!("invalid JSON body: {e:?}")),
            ),
            None,
        )
    }
    let (parsed, deadline_ms) = match endpoint {
        "recommend" => match serde_json::from_str::<crate::proto::RecommendRequest>(body) {
            Ok(req) => {
                let ms = req.deadline_ms;
                (Parsed::Recommend(req), ms)
            }
            Err(e) => return bad_json(&e),
        },
        "rate" => match serde_json::from_str::<crate::proto::RateRequest>(body) {
            Ok(req) => {
                let ms = req.deadline_ms;
                (Parsed::Rate(req), ms)
            }
            Err(e) => return bad_json(&e),
        },
        "rate_batch" => match serde_json::from_str::<crate::proto::RateBatchRequest>(body) {
            Ok(req) => {
                let ms = req.deadline_ms;
                (Parsed::RateBatch(req), ms)
            }
            Err(e) => return bad_json(&e),
        },
        _ => match serde_json::from_str::<crate::proto::ExplainRequest>(body) {
            Ok(mut req) => {
                // `?aim=` on the URL is an equivalent spelling of the
                // body field; the body wins when both are present.
                if req.aim.is_none() {
                    req.aim = query_param(query, "aim").map(str::to_owned);
                }
                let ms = req.deadline_ms;
                (Parsed::Explain(req), ms)
            }
            Err(e) => return bad_json(&e),
        },
    };
    let budget_ms = deadline_ms
        .unwrap_or(shared.config.default_deadline_ms)
        .min(shared.config.max_deadline_ms);
    let deadline = Deadline::from(started, budget_ms);
    if deadline.exceeded() {
        metrics.counter("serve.timeout").incr();
        return (
            Response::json(
                504,
                &ErrorBody::new("deadline_exceeded", "deadline elapsed before handling"),
            ),
            None,
        );
    }

    drop(admit);
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| match &parsed {
        Parsed::Recommend(req) => shared
            .app
            .recommend(req, deadline)
            .map(|resp| (Response::json(200, &resp), None)),
        Parsed::Explain(req) => shared
            .app
            .explain(req, deadline)
            .map(|resp| (Response::json(200, &resp), None)),
        Parsed::Rate(req) => shared.app.rate(req, deadline).map(|resp| {
            let ingest = IngestRecord {
                applied: resp.applied,
                wal_append_ns: resp.wal_append_ns,
            };
            (Response::json(200, &resp), Some(ingest))
        }),
        Parsed::RateBatch(req) => shared.app.rate_batch(req, deadline).map(|resp| {
            let ingest = IngestRecord {
                applied: resp.applied,
                wal_append_ns: resp.wal_append_ns,
            };
            (Response::json(200, &resp), Some(ingest))
        }),
    }));
    match outcome {
        Ok(Ok((response, ingest))) => (response, ingest),
        Ok(Err(app_error)) => {
            if matches!(app_error, AppError::DeadlineExceeded) {
                metrics.counter("serve.timeout").incr();
            }
            let (status, class, detail) = match app_error {
                AppError::BadRequest(d) => (400, "bad_request", d),
                AppError::NotFound(d) => (404, "not_found", d),
                AppError::Unprocessable(d) => (422, "unprocessable", d),
                AppError::DeadlineExceeded => (
                    504,
                    "deadline_exceeded",
                    format!("deadline of {budget_ms}ms elapsed"),
                ),
                AppError::Internal(d) => (500, "internal", d),
            };
            (Response::json(status, &ErrorBody::new(class, detail)), None)
        }
        Err(_) => {
            metrics.counter("serve.panic").incr();
            (
                Response::json(
                    500,
                    &ErrorBody::new("panic", "handler panicked; worker recovered"),
                ),
                None,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slo_counts_5xx_and_slow_requests_as_bad_and_4xx_as_good() {
        const OBJECTIVE_NS: u64 = 100_000;
        assert!(!slo_bad(200, 50_000, OBJECTIVE_NS));
        assert!(
            !slo_bad(200, OBJECTIVE_NS, OBJECTIVE_NS),
            "at the objective"
        );
        assert!(slo_bad(200, 500_000, OBJECTIVE_NS), "slow");
        assert!(slo_bad(500, 50_000, OBJECTIVE_NS), "errored");
        assert!(slo_bad(504, 50_000, OBJECTIVE_NS), "timed out");
        assert!(!slo_bad(404, 50_000, OBJECTIVE_NS), "a 4xx is good");
    }

    #[test]
    fn only_requests_bad_by_the_slo_are_logged() {
        const OBJECTIVE_NS: u64 = 100_000;
        let flight = FlightRecorder::default();
        let mut log = Vec::new();
        let cases = [
            (500, 1_000, true),
            (200, OBJECTIVE_NS + 1, true),
            (200, OBJECTIVE_NS, false),
            (404, 2_000, false),
        ];
        for (status, duration_ns, bad) in cases {
            let record = RequestRecord {
                seq: 0,
                trace_id: trace::trace_id_hex(1),
                route: "recommend".to_owned(),
                status,
                outcome: RequestRecord::outcome_of(status).to_owned(),
                start_offset_ns: 0,
                duration_ns,
                phases: Vec::new(),
                quality: None,
                ingest: None,
            };
            let logged = file_record(&flight, record, OBJECTIVE_NS, &mut log);
            assert_eq!(logged, bad, "status {status}, {duration_ns} ns");
        }
        assert_eq!(flight.recorded(), 4, "every request is in the ring");
        let logged: Vec<(u16, u64)> = String::from_utf8(log)
            .unwrap()
            .lines()
            .map(|line| serde_json::from_str::<RequestRecord>(line).expect("a flight record"))
            .map(|r| (r.status, r.duration_ns))
            .collect();
        assert_eq!(logged, vec![(500, 1_000), (200, OBJECTIVE_NS + 1)]);
    }
}
