//! The traced run: per-layer metrics.
//!
//! Spans are recorded by the benchmark's own code around calls into
//! each layer's public functions; no program code is changed. A
//! *mirror stack* — a world, scan engine and user-kNN model built from
//! the same seed and the app's defaults — stands in for the app's
//! private internals: each sampled request runs once through the app
//! (the `serve.app` span) and once through the mirror layer by layer.
//! A layer's self time is its span minus its child spans.

use std::collections::BTreeMap;
use std::io::{BufReader, Cursor};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use exrec_algo::kernel::{overlap_candidates, scan_similarities, union_sorted, SimParams};
use exrec_algo::{
    Ctx, IndexConfig, InstrumentedRecommender, KernelConfig, Recommender, ScanEngine, ScanMode,
    UserKnn,
};
use exrec_core::engine::Explainer;
use exrec_core::interfaces::{ExplainInput, InterfaceId};
use exrec_core::render::{PlainRenderer, Render};
use exrec_core::QualityProbe;
use exrec_data::synth::{movies, WorldConfig};
use exrec_data::{FsyncPolicy, MutableWorld, Wal, WalOp, WalRecord};
use exrec_eval::quality::{score_interfaces, QualityConfig};
use exrec_obs::{SpanEvent, Subscriber, Telemetry};
use exrec_serve::http::{read_request, Response};
use exrec_serve::proto::{ExplainRequest, RecommendRequest};
use exrec_serve::{AppConfig, Deadline, ExplainApp};
use exrec_types::{ItemId, UserId};

use crate::client::{self, Conn, Sample};
use crate::e2e::{self, Scratch};
use crate::stats::{median, percentile};
use crate::workload::{Generator, Mix, Req, Workload};
use crate::{check, Report};

/// Writes timed per write-path layer.
const WRITE_SAMPLES: usize = 100;
/// Reads and writes timed in each contention experiment.
const CONTENTION_SAMPLES: usize = 100;
/// Most read requests decomposed layer by layer.
const MAX_DECOMPOSED: usize = 300;

/// The server-side span subscriber: discards events while off (as the
/// default no-op subscriber does), keeps them in memory while on.
#[derive(Default)]
struct Recorder {
    on: AtomicBool,
    kept: AtomicU64,
    names: std::sync::Mutex<BTreeMap<String, u64>>,
}

impl Subscriber for Recorder {
    fn on_span(&self, event: &SpanEvent) {
        if self.on.load(Ordering::Relaxed) {
            self.kept.fetch_add(1, Ordering::Relaxed);
            *self
                .names
                .lock()
                .expect("recorder lock poisoned")
                .entry(event.name.clone())
                .or_default() += 1;
        }
    }
}

/// One timed span of the benchmark's own trace.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    ns: f64,
}

/// The benchmark's spans, kept in memory until the run ends. Spans of
/// one request sit under one `serve.app` root.
#[derive(Default)]
struct Spans(Vec<Span>);

impl Spans {
    fn add(&mut self, name: &'static str, parent: Option<usize>, took: Duration) -> usize {
        self.0.push(Span {
            name,
            parent,
            ns: took.as_nanos() as f64,
        });
        self.0.len() - 1
    }

    fn children_ns(&self, i: usize) -> f64 {
        self.0
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(|s| s.ns)
            .sum()
    }

    fn self_ns(&self, i: usize) -> f64 {
        self.0[i].ns - self.children_ns(i)
    }

    /// Span durations (or self times) of every span called `name`.
    fn values(&self, name: &str, own: bool) -> Vec<f64> {
        (0..self.0.len())
            .filter(|&i| self.0[i].name == name)
            .map(|i| if own { self.self_ns(i) } else { self.0[i].ns })
            .collect()
    }

    /// Sum of the non-negative self times under root `i`, over the
    /// root's duration: 1.0 when the child spans fit inside their
    /// parents, above 1.0 by however much they overrun.
    fn closure(&self, root: usize) -> f64 {
        let mut total = 0.0;
        let mut stack = vec![root];
        while let Some(i) = stack.pop() {
            total += self.self_ns(i).max(0.0);
            stack.extend((0..self.0.len()).filter(|&j| self.0[j].parent == Some(i)));
        }
        total / self.0[root].ns.max(1.0)
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

/// What the ranking layers did for one `recommend` call.
struct Ranking {
    scanned: f64,
    prune_ratio: Option<f64>,
    recall: Option<f64>,
}

/// The mirror stack: the app's model, rebuilt from its public parts.
struct Mirror {
    live: MutableWorld,
    engine: Arc<ScanEngine>,
    model: UserKnn,
    mode: ScanMode,
    params: SimParams,
}

impl Mirror {
    /// Replays the scan half of `UserKnn::recommend` under `parent`:
    /// the CSR lookup, the candidate set (pruned mode) and the kernel.
    /// The gather is what remains of the parent's span.
    fn rank_layers(
        &self,
        ctx: &Ctx<'_>,
        user: UserId,
        spans: &mut Spans,
        parent: usize,
    ) -> Ranking {
        let (csr, took) = timed(|| self.engine.csr(ctx.ratings, &self.params));
        spans.add("algo.kernel.csr", Some(parent), took);
        let n_users = csr.n_users();
        let all = || (0..n_users as u32).collect::<Vec<u32>>();
        let (list, pruned) = if self.mode == ScanMode::Pruned {
            let (candidates, took) = timed(|| {
                let index = self.engine.index(&csr);
                let clustered = index.candidates(&csr, user.raw());
                let budget = self.engine.index_config().resolve_budget(n_users);
                union_sorted(&clustered, &overlap_candidates(&csr, user, budget))
            });
            spans.add("algo.index.candidates", Some(parent), took);
            if candidates.len() < self.engine.fallback_floor(self.model.config().k) {
                (all(), false)
            } else {
                (candidates, true)
            }
        } else {
            (all(), false)
        };
        let mut sims = Vec::new();
        let tile = self.engine.tile();
        let (_, took) =
            timed(|| scan_similarities(&csr, &self.params, user, Some(&list), tile, &mut sims));
        spans.add("algo.kernel.scan", Some(parent), took);
        let (prune_ratio, recall) = if pruned {
            // Useful neighbours over attempts: of the exact scan's top-k
            // neighbours, the share the candidate set contained.
            let mut exact = Vec::new();
            scan_similarities(&csr, &self.params, user, None, tile, &mut exact);
            let floor = self.model.config().min_similarity;
            let mut best: Vec<(f64, u32)> = exact
                .iter()
                .enumerate()
                .filter(|&(v, &s)| s > floor && v != user.index())
                .map(|(v, &s)| (s, v as u32))
                .collect();
            best.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            best.truncate(self.model.config().k);
            let found = best
                .iter()
                .filter(|(_, v)| list.binary_search(v).is_ok())
                .count();
            let recall = if best.is_empty() {
                1.0
            } else {
                found as f64 / best.len() as f64
            };
            (Some(1.0 - list.len() as f64 / n_users as f64), Some(recall))
        } else {
            (None, None)
        };
        Ranking {
            scanned: list.len() as f64,
            prune_ratio,
            recall,
        }
    }
}

/// Per-call and per-request figures gathered outside the span tree.
#[derive(Default)]
struct Tally {
    scanned: Vec<f64>,
    prune: Vec<f64>,
    recall: Vec<f64>,
    model_calls: Vec<f64>,
    probe_ns: Vec<f64>,
    parse_ns: Vec<f64>,
    decode_ns: Vec<f64>,
    encode_ns: Vec<f64>,
    write_ns: Vec<f64>,
    edge_ms: Vec<f64>,
    closure: Vec<f64>,
    mismatches: usize,
}

/// Calls counted by the instrumented wrapper so far: recommend +
/// predict (ok or not) + evidence.
fn model_calls(telemetry: &Telemetry, name: &str) -> u64 {
    let report = telemetry.report();
    let counter = |key: String| report.counters.get(&key).copied().unwrap_or(0);
    counter(format!("algo.recommend.{name}"))
        + counter(format!("algo.predict.{name}"))
        + counter(format!("algo.predict_err.{name}"))
        + report
            .histograms
            .get(&format!("algo.evidence_ns.{name}"))
            .map_or(0, |h| h.count)
}

/// Times the edge's pure functions on one request and its answer.
fn edge_layers<T: serde::Serialize>(req: &Req, resp: &T, tally: &mut Tally) {
    let wire = client::wire(req.path(), &req.body());
    let (parsed, took) =
        timed(|| read_request(&mut BufReader::new(Cursor::new(wire.as_bytes())), 1 << 20));
    assert!(
        matches!(parsed, Ok(Some(_))),
        "the server parser rejects {wire:?}"
    );
    tally.parse_ns.push(took.as_nanos() as f64);
    let body = req.body();
    let (_, took) = timed(|| match req {
        Req::Recommend { .. } => serde_json::from_str::<RecommendRequest>(&body).is_ok(),
        _ => serde_json::from_str::<ExplainRequest>(&body).is_ok(),
    });
    tally.decode_ns.push(took.as_nanos() as f64);
    let (_, took) = timed(|| serde_json::to_string(resp));
    tally.encode_ns.push(took.as_nanos() as f64);
    let response = Response::json(200, resp);
    let mut sink = Vec::with_capacity(response.body.len() + 256);
    let (_, took) = timed(|| response.write_to(&mut sink, true));
    tally.write_ns.push(took.as_nanos() as f64);
}

/// Decomposes one read request into layer spans.
#[allow(clippy::too_many_arguments)]
fn decompose(
    req: &Req,
    app: &ExplainApp,
    mirror: &Mirror,
    counted: &InstrumentedRecommender<UserKnn>,
    telemetry: &Telemetry,
    conn: &mut Conn,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<(), String> {
    let far = Deadline::after_ms(60_000);
    let name = counted.name();
    let guard = mirror.live.read();
    let ctx = Ctx::new(&guard.ratings, &guard.catalog);
    let ranking = |spans: &mut Spans, tally: &mut Tally, parent: usize, user: UserId| {
        let r = mirror.rank_layers(&ctx, user, spans, parent);
        tally.scanned.push(r.scanned);
        tally.prune.extend(r.prune_ratio);
        tally.recall.extend(r.recall);
    };
    let root = match req {
        Req::Recommend { user, n, explain } => {
            let parsed: RecommendRequest =
                serde_json::from_str(&req.body()).map_err(|e| e.to_string())?;
            let (resp, took) = timed(|| app.recommend(&parsed, far));
            let resp = resp.map_err(|e| format!("direct recommend: {e:?}"))?;
            let root = spans.add("serve.app", None, took);
            let uid = UserId::new(*user);
            if !explain {
                let (ranked, took) = timed(|| mirror.model.recommend(&ctx, uid, *n));
                let model = spans.add("algo.user_knn.recommend", Some(root), took);
                ranking(spans, tally, model, uid);
                // The mirror ranks exactly as the app does: same world,
                // same defaults, so the same items and score bits.
                let served: Vec<(u32, u64)> = resp.results[0]
                    .items
                    .iter()
                    .map(|s| (s.item, s.score.to_bits()))
                    .collect();
                let mirrored: Vec<(u32, u64)> = ranked
                    .iter()
                    .map(|s| (s.item.raw(), s.prediction.score.to_bits()))
                    .collect();
                tally.mismatches += usize::from(served != mirrored);
            } else {
                let interface = AppConfig::default().default_interface;
                let explainer = Explainer::new(counted, interface);
                let before = model_calls(telemetry, name);
                let (explained, took) = timed(|| explainer.recommend_explained(&ctx, uid, *n));
                tally
                    .model_calls
                    .push((model_calls(telemetry, name) - before) as f64);
                let engine = spans.add("core.engine.recommend_explained", Some(root), took);
                // Replays the engine's steps: rank 2n, then evidence and
                // generation per item until n explanations exist.
                let (ranked, took) = timed(|| mirror.model.recommend(&ctx, uid, n * 2));
                let model = spans.add("algo.user_knn.recommend", Some(engine), took);
                ranking(spans, tally, model, uid);
                let mut made = 0;
                for scored in &ranked {
                    if made == *n {
                        break;
                    }
                    let (evidence, took) = timed(|| mirror.model.evidence(&ctx, uid, scored.item));
                    spans.add("algo.user_knn.evidence", Some(engine), took);
                    let Ok(evidence) = evidence else { continue };
                    let input = ExplainInput {
                        ctx: &ctx,
                        user: uid,
                        item: scored.item,
                        prediction: scored.prediction,
                        evidence: &evidence,
                    };
                    let (explanation, took) = timed(|| interface.generate(&input));
                    spans.add("core.interfaces.generate", Some(engine), took);
                    if let Ok(explanation) = explanation {
                        let (_, took) = timed(|| PlainRenderer.render(&explanation));
                        spans.add("core.render.render", Some(root), took);
                        made += 1;
                    }
                }
                tally.mismatches += usize::from(made != explained.len());
            }
            edge_layers(req, &resp, tally);
            root
        }
        Req::Explain { user, item, .. } => {
            let parsed: ExplainRequest =
                serde_json::from_str(&req.body()).map_err(|e| e.to_string())?;
            let (resp, took) = timed(|| app.explain(&parsed, far));
            let resp = resp.map_err(|e| format!("direct explain: {e:?}"))?;
            let root = spans.add("serve.app", None, took);
            let interface = InterfaceId::from_key(&resp.explanation.interface)
                .ok_or_else(|| format!("unknown interface {}", resp.explanation.interface))?;
            let (uid, iid) = (UserId::new(*user), ItemId::new(*item));
            let explainer = Explainer::new(counted, interface);
            let before = model_calls(telemetry, name);
            let (explained, took) = timed(|| explainer.explain(&ctx, uid, iid));
            tally
                .model_calls
                .push((model_calls(telemetry, name) - before) as f64);
            let engine = spans.add("core.engine.explain", Some(root), took);
            let (_, explanation) = explained.map_err(|e| format!("mirror explain: {e}"))?;
            let (prediction, took) = timed(|| mirror.model.predict(&ctx, uid, iid));
            spans.add("algo.user_knn.predict", Some(engine), took);
            let (evidence, took) = timed(|| mirror.model.evidence(&ctx, uid, iid));
            spans.add("algo.user_knn.evidence", Some(engine), took);
            let (prediction, evidence) = prediction
                .and_then(|p| evidence.map(|e| (p, e)))
                .map_err(|e| format!("mirror evidence: {e}"))?;
            let input = ExplainInput {
                ctx: &ctx,
                user: uid,
                item: iid,
                prediction,
                evidence: &evidence,
            };
            let (_, took) = timed(|| interface.generate(&input));
            spans.add("core.interfaces.generate", Some(engine), took);
            let (_, took) = timed(|| PlainRenderer.render(&explanation));
            spans.add("core.render.render", Some(root), took);
            // The live quality probe runs on one explain in N; timed
            // here on every one.
            let baseline = ctx
                .ratings
                .user_mean(uid)
                .unwrap_or_else(|| ctx.ratings.global_mean());
            let span = ctx.ratings.scale().span();
            let (_, took) =
                timed(|| QualityProbe::measure(&explanation, &evidence, baseline, span));
            tally.probe_ns.push(took.as_nanos() as f64);
            edge_layers(req, &resp, tally);
            root
        }
        Req::Rate { .. } | Req::RateBatch(_) => return Ok(()),
    };
    // The same request over a keep-alive socket, unloaded: what the
    // edge adds on top of the direct call.
    let (reply, took) = timed(|| conn.send(req.path(), &req.body()));
    let reply = reply.map_err(|e| format!("edge request: {e}"))?;
    if reply.status != 200 {
        return Err(format!("edge request answered {}: {req:?}", reply.status));
    }
    tally
        .edge_ms
        .push(client::ms(took) - spans.0[root].ns / 1e6);
    tally.closure.push(spans.closure(root));
    Ok(())
}

/// One write request as a journal record.
fn record_of(req: &Req) -> WalRecord {
    let op = |(user, item, value): (u32, u32, f64)| WalOp::Rate {
        user: UserId::new(user),
        item: ItemId::new(item),
        value,
    };
    match req {
        Req::Rate { user, item, value } => WalRecord::Rate {
            user: UserId::new(*user),
            item: ItemId::new(*item),
            value: *value,
        },
        Req::RateBatch(ops) => WalRecord::Batch(ops.iter().copied().map(op).collect()),
        _ => unreachable!("only writes become records"),
    }
}

fn ms_of(ns: &[f64]) -> f64 {
    median(ns) / 1e6
}

fn us_of(ns: &[f64]) -> f64 {
    median(ns) / 1e3
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// p90 of the timed calls, in ms.
fn p90_ms(took: Vec<Duration>) -> Result<f64, String> {
    let samples: Vec<f64> = took.into_iter().map(client::ms).collect();
    percentile(&samples, 90.0)
}

/// The traced run.
pub fn run(w: &Workload, seed: u64, seconds: u64, report: &mut Report) -> Result<(), String> {
    let scratch = Scratch::new(&format!("{}-trace", w.name));
    let defaults = AppConfig::default();

    // Set-up layers, on the mirror stack.
    let (world, gen_took) = timed(|| {
        movies::generate(&WorldConfig {
            n_users: w.n_users,
            n_items: w.n_items,
            density: w.density,
            seed: defaults.seed,
            ..WorldConfig::default()
        })
    });
    let mode = if defaults.exact {
        ScanMode::Exact
    } else {
        ScanMode::Pruned
    };
    let engine = Arc::new(ScanEngine::new(
        KernelConfig::default(),
        IndexConfig::default(),
    ));
    let model = UserKnn::default().with_engine(Arc::clone(&engine), mode);
    let params = SimParams {
        similarity: model.config().similarity,
        min_overlap: model.config().min_overlap,
        significance: model.config().significance,
    };
    let (csr, csr_took) = timed(|| engine.csr(&world.ratings, &params));
    let index_took = (mode == ScanMode::Pruned).then(|| timed(|| engine.index(&csr)).1);
    drop(csr);
    let (_, score_took) = timed(|| {
        score_interfaces(
            &world,
            &model,
            &QualityConfig {
                sample_pairs: defaults.quality_pairs,
                ..QualityConfig::default()
            },
        )
    });
    let mirror = Mirror {
        live: MutableWorld::new(world),
        engine,
        model,
        mode,
        params,
    };
    let telemetry = Telemetry::default();
    let counted = InstrumentedRecommender::new(mirror.model.clone(), &telemetry);

    // The served app, with a span recorder that can be switched on, and
    // an identical app for direct calls.
    let recorder = Arc::new(Recorder::default());
    let (handle, _) = e2e::serve(
        w,
        seed,
        scratch.wal("served"),
        Telemetry::with_subscriber(Arc::clone(&recorder) as Arc<dyn Subscriber>),
    )?;
    let addr = handle.addr();
    let app = ExplainApp::new(
        e2e::app_config(w, Some(scratch.wal("direct"))),
        Telemetry::default(),
    );
    check::direct(&app, &e2e::first_request(w, seed))?;

    // Tracing overhead: the open loop in quarters, server spans off,
    // on, on, off, so drift cancels.
    let generator = std::sync::Mutex::new(Generator::new(w, seed));
    let mut legs: Vec<Sample> = Vec::new();
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for (k, traced) in [false, true, true, false].into_iter().enumerate() {
        recorder.on.store(traced, Ordering::Relaxed);
        let leg = e2e::open_leg(
            w,
            seed.wrapping_add(k as u64),
            addr,
            &generator,
            seconds as f64 / 4.0,
            false,
        );
        let reads = leg
            .iter()
            .filter(|s| !s.req.is_write())
            .map(|s| s.latency_ms);
        if traced {
            on.extend(reads)
        } else {
            off.extend(reads)
        }
        legs.extend(leg);
    }
    recorder.on.store(false, Ordering::Relaxed);
    e2e::tally(&legs, report);
    let lag = e2e::lag_p99(&legs)?;
    let overhead = 100.0 * (median(&on) - median(&off)) / median(&off);
    let spans_kept = recorder.kept.load(Ordering::Relaxed);
    report.note(format!(
        "tracing overhead legs: {} untraced and {} traced reads; {spans_kept} server spans kept in memory: {:?}",
        off.len(),
        on.len(),
        recorder.names.lock().expect("recorder lock poisoned")
    ));

    // Layer decomposition of the workload's own read requests.
    let mut spans = Spans::default();
    let mut tally = Tally::default();
    let mut conn = Conn::connect(addr).map_err(|e| format!("edge connection: {e}"))?;
    let mut reads = Generator::new(w, seed);
    let budget = Instant::now() + Duration::from_secs_f64(seconds as f64 / 4.0);
    let mut decomposed = 0;
    while decomposed < MAX_DECOMPOSED && Instant::now() < budget {
        let req = reads.next_req();
        if req.is_write() {
            continue;
        }
        decompose(
            &req, &app, &mirror, &counted, &telemetry, &mut conn, &mut spans, &mut tally,
        )?;
        decomposed += 1;
    }
    drop(conn);
    handle.shutdown();

    // Write-path layers: the app's write call, the live world's apply,
    // the journal append and the CSR patch the next read pays.
    let writes: Vec<Req> = (0..WRITE_SAMPLES).map(|_| reads.write()).collect();
    let mut rate_ns = Vec::new();
    let mut apply_ns = Vec::new();
    let mut patch_ns = Vec::new();
    let mut append_ns = Vec::new();
    let (mut wal, _) =
        Wal::open(&scratch.wal("append"), FsyncPolicy::Never).map_err(|e| e.to_string())?;
    let (mut bytes, mut ops) = (0u64, 0u64);
    for req in &writes {
        let (answer, took) = timed(|| check::direct(&app, req));
        answer?;
        rate_ns.push(took.as_nanos() as f64);
        let record = record_of(req);
        let (applied, took) = timed(|| {
            mirror
                .live
                .apply(&record, |_, deltas| mirror.engine.notify_deltas(deltas))
        });
        applied.map_err(|e| format!("mirror apply: {e}"))?;
        apply_ns.push(took.as_nanos() as f64);
        let (_, took) = timed(|| {
            mirror
                .engine
                .csr(&mirror.live.read().ratings, &mirror.params)
        });
        patch_ns.push(took.as_nanos() as f64);
        let (frame, took) = timed(|| wal.append(&record));
        bytes += frame.map_err(|e| e.to_string())?;
        ops += req.write_pairs().len() as u64;
        append_ns.push(took.as_nanos() as f64);
    }
    drop(wal);

    // Lock waits, mixed workload only: each side's p90 with the other
    // side running concurrently, minus its p90 alone.
    let (mut rate_wait, mut read_wait) = (0.0, 0.0);
    if w.mix == Mix::Mixed {
        let read = |k: usize| {
            let req = RecommendRequest {
                users: vec![((k * 7_919) % w.n_users) as u32],
                n: Some(10),
                interface: None,
                explain: None,
                deadline_ms: None,
                inject_panic: None,
                inject_delay_ms: None,
            };
            timed(|| app.recommend(&req, Deadline::after_ms(60_000))).1
        };
        let write = |req: &Req| timed(|| check::direct(&app, req)).1;
        let mut more = |n: usize| -> Vec<Req> { (0..n).map(|_| reads.write()).collect() };
        let (alone, beside, background) = (
            more(CONTENTION_SAMPLES),
            more(CONTENTION_SAMPLES),
            more(10 * CONTENTION_SAMPLES),
        );
        let stop = AtomicBool::new(false);
        let rate_alone = p90_ms(alone.iter().map(write).collect())?;
        let rate_beside = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                // Paced like served traffic: back-to-back reads from one
                // thread starve the writer outright.
                let mut k = 0;
                while !stop.load(Ordering::Relaxed) {
                    read(k);
                    std::thread::sleep(Duration::from_millis(1));
                    k += 1;
                }
            });
            let took: Vec<Duration> = beside
                .iter()
                .map(|req| {
                    std::thread::sleep(Duration::from_millis(2));
                    write(req)
                })
                .collect();
            stop.store(true, Ordering::Relaxed);
            reader.join().expect("reader thread panicked");
            p90_ms(took)
        })?;
        rate_wait = rate_beside - rate_alone;
        let read_alone = p90_ms((0..CONTENTION_SAMPLES).map(read).collect())?;
        stop.store(false, Ordering::Relaxed);
        let read_beside = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for req in &background {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    write(req);
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
            let took = (0..CONTENTION_SAMPLES).map(read).collect();
            stop.store(true, Ordering::Relaxed);
            writer.join().expect("writer thread panicked");
            p90_ms(took)
        })?;
        read_wait = read_beside - read_alone;
        report.note(format!(
            "lock waits: rate p90 {rate_alone:.3} ms alone, {rate_beside:.3} ms beside reads; recommend p90 {read_alone:.3} ms alone, {read_beside:.3} ms beside writes"
        ));
    } else {
        report.note(format!(
            "absent on {}: serve.app.rate_wait_ms and serve.app.read_wait_ms (its read legs send no writes)",
            w.name
        ));
    }
    drop(app);

    // Validity.
    let closure = median(&tally.closure);
    report.note(format!(
        "{decomposed} read requests decomposed; median span closure {closure:.4} (self times over serve.app); {} mirror mismatches",
        tally.mismatches
    ));
    if !(0.9..=1.1).contains(&closure) {
        report.problem(format!(
            "layer spans add up to {closure:.3} of serve.app, outside 0.9..1.1"
        ));
    }
    if tally.mismatches > 0 {
        report.problem(format!(
            "{} sampled requests ranked differently by the app and the mirror stack",
            tally.mismatches
        ));
    }
    let recall = mean(&tally.recall);
    if mode == ScanMode::Pruned && !tally.recall.is_empty() && recall < 0.99 {
        report.problem(format!("algo.index.recall_at_k {recall:.4} is below 0.99"));
    }
    if lag > w.lag_bound_ms {
        report.problem(format!(
            "run invalid: loadgen.lag_p99_ms {lag:.3} exceeds the bound {} ms",
            w.lag_bound_ms
        ));
    }

    let absent = |what: &str, report: &mut Report| {
        report.note(format!("absent on {}: {what}", w.name));
    };
    if spans
        .values("core.engine.recommend_explained", false)
        .is_empty()
    {
        absent(
            "core.engine.recommend_explained_ms (no explained top-k in its mix)",
            report,
        );
    }
    if spans.values("core.engine.explain", false).is_empty() {
        absent(
            "core.engine.explain_ms and core.quality.probe_us (no /v1/explain in its mix)",
            report,
        );
    }
    if tally.model_calls.is_empty() {
        absent("algo.user_knn.evidence_ms, core.engine.model_calls, core.interfaces.generate_us and core.render.render_us (no explained requests)", report);
    }
    if mode == ScanMode::Exact {
        absent("algo.index.* (the app serves the exact scan)", report);
    }

    report.metric("data.synth.generate_s", gen_took.as_secs_f64(), "s");
    report.metric("eval.quality.score_s", score_took.as_secs_f64(), "s");
    report.metric("algo.kernel.csr_build_ms", client::ms(csr_took), "ms");
    report.metric(
        "algo.index.build_ms",
        index_took.map_or(0.0, client::ms),
        "ms",
    );
    report.metric(
        "algo.user_knn.recommend_ms",
        ms_of(&spans.values("algo.user_knn.recommend", false)),
        "ms",
    );
    report.metric(
        "algo.user_knn.gather_ms",
        ms_of(&spans.values("algo.user_knn.recommend", true)),
        "ms",
    );
    report.metric(
        "algo.kernel.scan_ms",
        ms_of(&spans.values("algo.kernel.scan", false)),
        "ms",
    );
    report.metric("algo.kernel.users_scanned", mean(&tally.scanned), "count");
    report.metric(
        "algo.index.candidates_ms",
        ms_of(&spans.values("algo.index.candidates", false)),
        "ms",
    );
    report.metric("algo.index.prune_ratio", mean(&tally.prune), "ratio");
    report.metric(
        "algo.index.recall_at_k",
        if tally.recall.is_empty() { 0.0 } else { recall },
        "ratio",
    );
    report.metric(
        "serve.app.self_ms",
        ms_of(&spans.values("serve.app", true)),
        "ms",
    );
    report.metric(
        "core.engine.recommend_explained_ms",
        ms_of(&spans.values("core.engine.recommend_explained", false)),
        "ms",
    );
    report.metric(
        "core.engine.explain_ms",
        ms_of(&spans.values("core.engine.explain", false)),
        "ms",
    );
    report.metric(
        "algo.user_knn.evidence_ms",
        ms_of(&spans.values("algo.user_knn.evidence", false)),
        "ms",
    );
    report.metric("core.engine.model_calls", mean(&tally.model_calls), "count");
    report.metric(
        "core.interfaces.generate_us",
        us_of(&spans.values("core.interfaces.generate", false)),
        "us",
    );
    report.metric(
        "core.render.render_us",
        us_of(&spans.values("core.render.render", false)),
        "us",
    );
    report.metric("core.quality.probe_us", us_of(&tally.probe_ns), "us");
    report.metric("serve.http.parse_us", us_of(&tally.parse_ns), "us");
    report.metric("serve.http.write_us", us_of(&tally.write_ns), "us");
    report.metric("serve.proto.decode_us", us_of(&tally.decode_ns), "us");
    report.metric("serve.proto.encode_us", us_of(&tally.encode_ns), "us");
    report.metric("serve.server.edge_ms", median(&tally.edge_ms), "ms");
    report.metric("serve.app.rate_ms", ms_of(&rate_ns), "ms");
    report.metric("serve.app.rate_wait_ms", rate_wait, "ms");
    report.metric("serve.app.read_wait_ms", read_wait, "ms");
    report.metric("data.live.apply_us", us_of(&apply_ns), "us");
    report.metric("data.wal.append_us", us_of(&append_ns), "us");
    report.metric(
        "data.wal.bytes_per_op",
        bytes as f64 / ops.max(1) as f64,
        "bytes",
    );
    report.metric("algo.kernel.csr_patch_ms", ms_of(&patch_ns), "ms");
    report.metric("loadgen.lag_p99_ms", lag, "ms");
    report.metric("trace.overhead_pct", overhead, "%");
    Ok(())
}
