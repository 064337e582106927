//! Integration and property tests for the tiled similarity kernel, the
//! cluster-pruned candidate index and the one ratings store they read.
//!
//! The correctness bar from `docs/kernels.md`:
//!
//! * **Exact mode is bit-identical** to the brute per-pair path — same
//!   top-k, same scores down to the float bits, for every similarity
//!   measure, including the negative-`min_similarity` edge where
//!   zero-similarity raters survive the filter, tied similarities, and
//!   neighbourhoods that never fill.
//! * **One scan per request** — the ranking's inverted gather equals
//!   the per-item column gather it replaced (pruned mode and multi-head
//!   walks included),
//!   every ranked item's evidence is the single-pair neighbourhood, and
//!   an explained ranking makes one model call.
//! * **Tile size is a pure performance knob** — any tile size produces
//!   the identical sims table.
//! * **Pruned mode keeps recall@k ≥ 0.99** against exact on seeded
//!   synthetic worlds, and **falls back to exact** when the candidate
//!   set is too small for `k`.
//! * **One store** — scans read the served matrix: a write shows in the
//!   next ranking with no engine notification, the write path never
//!   copies the store, and the engine holds no matrix between requests.

use std::sync::Arc;

use exrec_algo::kernel::{overlap_candidates, scan_similarities, union_sorted, SimParams};
use exrec_algo::neighbors::top_k_stream;
use exrec_algo::recommender::NeighborContribution;
use exrec_algo::user_knn::UserKnnConfig;
use exrec_algo::{
    Ctx, IndexConfig, InstrumentedRecommender, KernelConfig, ModelEvidence, Recommender,
    ScanEngine, ScanMode, Scored, Similarity, UserKnn,
};
use exrec_core::engine::Explainer;
use exrec_core::interfaces::InterfaceId;
use exrec_core::render::{PlainRenderer, Render};
use exrec_data::synth::{movies, WorldConfig};
use exrec_data::{MutableWorld, RatingsMatrix, WalRecord, World};
use exrec_obs::Telemetry;
use exrec_types::{Error, ItemId, Prediction, UserId};
use proptest::prelude::*;

fn world(n_users: usize, n_items: usize, seed: u64) -> World {
    movies::generate(&WorldConfig {
        n_users,
        n_items,
        density: 0.2,
        seed,
        ..WorldConfig::default()
    })
}

fn engine_with(index: IndexConfig) -> Arc<ScanEngine> {
    Arc::new(ScanEngine::new(KernelConfig::default(), index))
}

fn assert_bit_identical(a: &[Scored], b: &[Scored], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: result length");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.item, y.item, "{label}: item order");
        assert_eq!(
            x.prediction.score.to_bits(),
            y.prediction.score.to_bits(),
            "{label}: score bits for {:?}",
            x.item
        );
        assert_eq!(
            x.prediction.confidence.value().to_bits(),
            y.prediction.confidence.value().to_bits(),
            "{label}: confidence bits for {:?}",
            x.item
        );
    }
}

fn assert_neighbors_bit_identical(
    a: &[NeighborContribution],
    b: &[NeighborContribution],
    label: &str,
) {
    assert_eq!(a.len(), b.len(), "{label}: neighbour count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.user, y.user, "{label}: neighbour order");
        assert_eq!(
            x.similarity.to_bits(),
            y.similarity.to_bits(),
            "{label}: similarity bits"
        );
        assert_eq!(
            x.rating.to_bits(),
            y.rating.to_bits(),
            "{label}: rating bits"
        );
    }
}

fn neighbors_of(evidence: &ModelEvidence) -> &[NeighborContribution] {
    match evidence {
        ModelEvidence::UserNeighbors { neighbors } => neighbors,
        other => panic!("user-kNN evidence expected, got {}", other.kind()),
    }
}

/// The worlds the exact-mode oracle runs on, with their `k`: a base
/// world; the same world with 40 users duplicated, so similarities tie
/// and only the id order separates neighbours; and `k` above every
/// item's rater count, so no neighbourhood ever fills and the gather
/// walks every eligible user.
fn exact_cases() -> Vec<(&'static str, World, usize)> {
    let base = world(150, 80, 0xC0FFEE);
    let most_raters = base
        .ratings
        .items()
        .map(|i| base.ratings.item_ratings(i).len())
        .max()
        .unwrap();
    let mut ties = base.clone();
    let n = base.ratings.n_users() as u32;
    ties.ratings.ensure_users(n as usize + 40);
    for c in 0..40u32 {
        for &(item, value) in base.ratings.user_ratings(UserId(c * 3)) {
            ties.ratings.rate(UserId(n + c), item, value).unwrap();
        }
    }
    vec![
        ("base", base.clone(), 20),
        ("ties", ties, 20),
        ("k beyond raters", base, most_raters + 1),
    ]
}

/// Exact mode must reproduce the brute path bit-for-bit: every
/// similarity measure, negative min_similarity (which admits
/// zero-similarity raters), tied similarities and neighbourhoods that
/// never fill.
#[test]
fn exact_mode_is_bit_identical_to_brute() {
    let mut saw_tie = false;
    for (case, w, k) in exact_cases() {
        let ctx = Ctx::new(&w.ratings, &w.catalog);
        let users: Vec<UserId> = (0..w.ratings.n_users())
            .step_by(7)
            .map(|u| UserId(u as u32))
            .collect();
        for similarity in [
            Similarity::Pearson,
            Similarity::Cosine,
            Similarity::AdjustedCosine,
            Similarity::Jaccard,
        ] {
            for min_similarity in [0.0, -2.0] {
                let config = UserKnnConfig {
                    k,
                    similarity,
                    min_similarity,
                    ..UserKnnConfig::default()
                };
                let brute = UserKnn::new(config.clone()).unwrap();
                let exact = UserKnn::new(config)
                    .unwrap()
                    .with_engine(engine_with(IndexConfig::default()), ScanMode::Exact);
                for &u in &users {
                    let want = brute.recommend(&ctx, u, 10);
                    let label = format!("{case}: {similarity:?} min_sim {min_similarity} user {u}");
                    assert_bit_identical(&exact.recommend(&ctx, u, 10), &want, &label);
                    // The single-item evidence path must agree too.
                    if let Some(first) = want.first() {
                        let bn = brute.neighbors(&ctx, u, first.item);
                        let en = exact.neighbors(&ctx, u, first.item);
                        assert_neighbors_bit_identical(&bn, &en, &label);
                        saw_tie |= bn.windows(2).any(|p| p[0].similarity == p[1].similarity);
                    }
                }
            }
        }
    }
    assert!(saw_tie, "the tie case must produce tied neighbours");
}

/// The column gather the inverted gather replaced, as a test oracle:
/// per unrated item, the stable top-k of its raters under `sims`,
/// scored by the mean-centred predictor; ranked by score, then id.
fn column_gather_ranking(
    ctx: &Ctx<'_>,
    sims: &[f64],
    config: &UserKnnConfig,
    user: UserId,
) -> Vec<(ItemId, f64, Vec<NeighborContribution>)> {
    let global = ctx.ratings.global_mean();
    let user_mean = ctx.ratings.user_mean(user).unwrap_or(global);
    let mut ranked: Vec<_> = ctx
        .catalog
        .ids()
        .filter(|&i| ctx.ratings.rating(user, i).is_none())
        .filter_map(|item| {
            let raters = ctx.ratings.item_ratings(item).iter();
            let neighbors = top_k_stream(
                raters
                    .filter(|&&(v, _)| v != user && sims[v.index()] > config.min_similarity)
                    .map(|&(v, rating)| NeighborContribution {
                        user: v,
                        similarity: sims[v.index()],
                        rating,
                    }),
                config.k,
                |n| n.similarity,
            );
            let (mut num, mut den) = (0.0, 0.0);
            for n in &neighbors {
                let mean = ctx.ratings.user_mean(n.user).unwrap_or(global);
                num += n.similarity * (n.rating - mean);
                den += n.similarity.abs();
            }
            let score = ctx.ratings.scale().bound(user_mean + num / den);
            (!neighbors.is_empty() && den > 1e-12).then_some((item, score, neighbors))
        })
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    ranked
}

/// The ranking's one scan and inverted gather must equal the column
/// gather over the same scan list, item for item, neighbour for
/// neighbour, bit for bit. Two cases: pruned mode on a world big enough
/// to prune, and exact mode with every user eligible and lists that
/// never fill, so the walk runs past its first head of 4,096 users.
#[test]
fn ranking_matches_the_column_gather() {
    // All 5,999 other users pass `sim > -2` and no list reaches `k`.
    let multi_head = UserKnnConfig {
        k: 10_000,
        min_similarity: -2.0,
        ..UserKnnConfig::default()
    };
    let cases = [
        (
            world(4000, 150, 0xFEED),
            ScanMode::Pruned,
            UserKnnConfig::default(),
        ),
        (world(6000, 120, 0x5EED), ScanMode::Exact, multi_head),
    ];
    for (w, mode, config) in cases {
        let (n_users, n_items) = (w.ratings.n_users(), w.ratings.n_items());
        let ctx = Ctx::new(&w.ratings, &w.catalog);
        let engine = engine_with(IndexConfig::default());
        let model = UserKnn::new(config.clone())
            .unwrap()
            .with_engine(Arc::clone(&engine), mode);
        let params = SimParams {
            similarity: config.similarity,
            min_overlap: config.min_overlap,
            significance: config.significance,
        };
        let mut sims = Vec::new();
        for u in (0..n_users).step_by(n_users / 16) {
            let user = UserId(u as u32);
            let got = model.recommend_with_evidence(&ctx, user, n_items);
            // The scan list the model builds: in pruned mode cluster
            // probes plus the overlap pass, exact below the fallback
            // floor.
            let ratings = engine.csr(&w.ratings, &params);
            let mut list: Vec<u32> = (0..n_users as u32).collect();
            if mode == ScanMode::Pruned {
                let budget = engine.index_config().resolve_budget(n_users);
                let candidates = union_sorted(
                    &engine.index(&ratings).candidates(&ratings, user.raw()),
                    &overlap_candidates(&ratings, user, budget),
                );
                if candidates.len() >= engine.fallback_floor(config.k) {
                    list = candidates;
                }
            }
            scan_similarities(
                &ratings,
                &params,
                user,
                Some(&list),
                engine.tile(),
                &mut sims,
            );
            let want = column_gather_ranking(&ctx, &sims, &config, user);
            let label = format!("{} user {u}", mode.name());
            assert_eq!(got.len(), want.len(), "{label}: ranked items");
            for ((scored, evidence), (item, score, neighbors)) in got.iter().zip(&want) {
                let label = format!("{label} item {item:?}");
                assert_eq!(scored.item, *item, "{label}: item order");
                assert_eq!(
                    scored.prediction.score.to_bits(),
                    score.to_bits(),
                    "{label}"
                );
                let evidence = evidence.as_ref().expect("user-kNN ranks with evidence");
                assert_neighbors_bit_identical(neighbors_of(evidence), neighbors, &label);
            }
        }
        if mode == ScanMode::Pruned {
            let stats = engine.stats();
            assert!(stats.pruned_scans > 0, "the world must prune: {stats:?}");
        }
    }
}

/// Every ranked item carries the neighbourhood `neighbors` computes for
/// that pair alone, bit for bit, on every scan path; and the ranking is
/// `recommend`'s.
#[test]
fn ranked_evidence_equals_single_pair_neighbors() {
    let small = world(150, 80, 0xC0FFEE);
    let big = world(4000, 150, 0xFEED);
    let engine = || engine_with(IndexConfig::default());
    let cases = [
        ("brute", &small, UserKnn::default()),
        (
            "exact",
            &small,
            UserKnn::default().with_engine(engine(), ScanMode::Exact),
        ),
        (
            "pruned",
            &big,
            UserKnn::default().with_engine(engine(), ScanMode::Pruned),
        ),
    ];
    for (case, w, model) in cases {
        let ctx = Ctx::new(&w.ratings, &w.catalog);
        let n_users = w.ratings.n_users();
        for u in (0..n_users).step_by(n_users / 12) {
            let user = UserId(u as u32);
            let ranked = model.recommend_with_evidence(&ctx, user, 20);
            let scored: Vec<Scored> = ranked.iter().map(|(s, _)| *s).collect();
            let label = format!("{case} user {u}");
            assert_bit_identical(&scored, &model.recommend(&ctx, user, 20), &label);
            for (s, evidence) in &ranked {
                let evidence = evidence.as_ref().expect("user-kNN ranks with evidence");
                let single = model.neighbors(&ctx, user, s.item);
                assert_neighbors_bit_identical(neighbors_of(evidence), &single, &label);
            }
        }
    }
}

/// `predict_with_evidence` is `predict` then `evidence` in one call:
/// the same prediction, evidence and errors, both `NoPrediction`
/// reasons and the id-range errors included.
#[test]
fn predict_with_evidence_equals_predict_then_evidence() {
    let mut w = world(60, 40, 0xE71D);
    // User 60 rates only item 40, which nobody else rated: it shares no
    // co-rating with anyone, so its similarity is exactly 0. Item 41 has
    // no raters at all.
    w.ratings.ensure_users(61);
    w.ratings.ensure_items(42);
    w.ratings.rate(UserId(60), ItemId(40), 4.0).unwrap();
    let ctx = Ctx::new(&w.ratings, &w.catalog);
    let mut reasons = std::collections::BTreeSet::new();
    for min_similarity in [0.0, -2.0] {
        let config = UserKnnConfig {
            min_similarity,
            ..UserKnnConfig::default()
        };
        let engine = || engine_with(IndexConfig::default());
        let models = [
            UserKnn::new(config.clone()).unwrap(),
            UserKnn::new(config.clone())
                .unwrap()
                .with_engine(engine(), ScanMode::Exact),
            UserKnn::new(config)
                .unwrap()
                .with_engine(engine(), ScanMode::Pruned),
        ];
        for model in &models {
            for u in (0..62u32).step_by(3).chain([99]) {
                for i in (0..42u32).chain([99]) {
                    let (user, item) = (UserId(u), ItemId(i));
                    let got = model.predict_with_evidence(&ctx, user, item);
                    let want: Result<(Prediction, ModelEvidence), Error> = model
                        .predict(&ctx, user, item)
                        .and_then(|p| model.evidence(&ctx, user, item).map(|e| (p, e)));
                    assert_eq!(format!("{got:?}"), format!("{want:?}"), "user {u} item {i}");
                    if let Err(Error::NoPrediction { reason, .. }) = got {
                        reasons.insert(reason);
                    }
                }
            }
        }
    }
    assert_eq!(
        reasons.len(),
        2,
        "both NoPrediction reasons must occur: {reasons:?}"
    );
}

/// A user-kNN that leaves evidence reuse off: the trait defaults gather
/// every ranked item's evidence with a separate `evidence` call.
struct PerItemEvidence(UserKnn);

impl Recommender for PerItemEvidence {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn predict(
        &self,
        ctx: &Ctx<'_>,
        user: UserId,
        item: ItemId,
    ) -> exrec_types::Result<Prediction> {
        self.0.predict(ctx, user, item)
    }
    fn evidence(
        &self,
        ctx: &Ctx<'_>,
        user: UserId,
        item: ItemId,
    ) -> exrec_types::Result<ModelEvidence> {
        self.0.evidence(ctx, user, item)
    }
    fn recommend(&self, ctx: &Ctx<'_>, user: UserId, n: usize) -> Vec<Scored> {
        self.0.recommend(ctx, user, n)
    }
}

/// An explained ranking over an instrumented user-kNN makes one model
/// call, and explains exactly what the bare model and the per-item
/// evidence path explain: same items, same rendered text.
#[test]
fn explained_ranking_is_one_model_call() {
    let w = world(150, 80, 0xC0FFEE);
    let ctx = Ctx::new(&w.ratings, &w.catalog);
    let obs = Telemetry::default();
    let bare = UserKnn::default().with_engine(engine_with(IndexConfig::default()), ScanMode::Exact);
    let counted = InstrumentedRecommender::new(bare.clone(), &obs);
    let per_item = PerItemEvidence(bare.clone());
    let model_calls = || {
        let report = obs.report();
        report.counters["algo.recommend.user-knn"]
            + report.counters["algo.predict.user-knn"]
            + report.counters["algo.predict_err.user-knn"]
            + report.histograms["algo.evidence_ns.user-knn"].count
    };
    let interface = InterfaceId::ClusteredHistogram;
    let rendered = |explained: Vec<(Scored, exrec_core::explanation::Explanation)>| {
        explained
            .iter()
            .map(|(s, e)| {
                (
                    s.item,
                    s.prediction.score.to_bits(),
                    PlainRenderer.render(e),
                )
            })
            .collect::<Vec<_>>()
    };
    for u in (0..150u32).step_by(11) {
        let user = UserId(u);
        let before = model_calls();
        let got = rendered(Explainer::new(&counted, interface).recommend_explained(&ctx, user, 5));
        assert_eq!(
            model_calls() - before,
            1,
            "user {u}: model calls per explained ranking"
        );
        assert!(!got.is_empty(), "user {u}: something to explain");
        let bare_text =
            rendered(Explainer::new(&bare, interface).recommend_explained(&ctx, user, 5));
        let per_item_text =
            rendered(Explainer::new(&per_item, interface).recommend_explained(&ctx, user, 5));
        assert_eq!(got, bare_text, "user {u}: bare model");
        assert_eq!(got, per_item_text, "user {u}: per-item evidence");

        // A single-pair explain is one call too.
        let item = got[0].0;
        let before = model_calls();
        let explained = Explainer::new(&counted, interface).explain(&ctx, user, item);
        assert!(explained.is_ok());
        assert_eq!(
            model_calls() - before,
            1,
            "user {u}: model calls per explain"
        );
    }
}

/// Tile size only changes the clock, never the sims: on a 200-user
/// world, every user's sims table at tiles 3, 7, 64, 200 and 100,000
/// equals the tile-1 table bit for bit.
#[test]
fn tile_size_is_result_invariant() {
    let w = world(200, 60, 0x711E);
    let ratings = &w.ratings;
    let params = SimParams {
        similarity: Similarity::Pearson,
        min_overlap: 2,
        significance: 20,
    };
    let bits = |sims: &[f64]| sims.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
    let (mut want, mut got) = (Vec::new(), Vec::new());
    for u in (0..200u32).step_by(13) {
        let user = UserId(u);
        scan_similarities(ratings, &params, user, None, 1, &mut want);
        assert!(want.iter().any(|&s| s != 0.0), "user {u} has neighbours");
        for tile in [3, 7, 64, 200, 100_000] {
            scan_similarities(ratings, &params, user, None, tile, &mut got);
            assert_eq!(bits(&got), bits(&want), "tile {tile} user {u}");
        }
    }
}

/// Pruned mode on seeded worlds: recall@k of the *neighbour search* —
/// the top-k most similar users the pruned candidate set surfaces,
/// against the exact scan's top-k — must hold ≥ 0.99 averaged over
/// sampled queries. This is the metric `docs/kernels.md` defines (the
/// explanation-evidence guarantee: pruning must not change which
/// neighbours get cited), also gated on served traffic by
/// `perfbench --trace 1`.
#[test]
fn pruned_recall_at_k_holds() {
    for (n_users, n_items, seed) in [(4000usize, 150usize, 0xFEEDu64), (6000, 200, 0x5EED)] {
        let w = world(n_users, n_items, seed);
        let ratings = &w.ratings;
        let index_cfg = IndexConfig::default();
        let index = exrec_algo::CandidateIndex::build(ratings, &index_cfg);
        let params = SimParams {
            similarity: Similarity::Pearson,
            min_overlap: 2,
            significance: 20,
        };
        let k = 20usize;
        let (mut hit, mut total) = (0usize, 0usize);
        let (mut exact_sims, mut pruned_sims) = (Vec::new(), Vec::new());
        let mut pruned_something = false;
        for u in (0..n_users).step_by(n_users / 50) {
            let user = UserId(u as u32);
            scan_similarities(ratings, &params, user, None, 2048, &mut exact_sims);
            let cands = union_sorted(
                &index.candidates(ratings, user.raw()),
                &overlap_candidates(ratings, user, index_cfg.resolve_budget(n_users)),
            );
            if cands.len() < n_users {
                pruned_something = true;
            }
            scan_similarities(ratings, &params, user, Some(&cands), 2048, &mut pruned_sims);
            let topk = |sims: &[f64]| -> Vec<u32> {
                top_k_stream(
                    (0..n_users as u32).filter(|&v| v as usize != u && sims[v as usize] > 0.0),
                    k,
                    |&v| sims[v as usize],
                )
            };
            let want = topk(&exact_sims);
            let got = topk(&pruned_sims);
            total += want.len();
            hit += want.iter().filter(|v| got.contains(v)).count();
        }
        assert!(pruned_something, "worlds must be big enough to prune");
        assert!(total > 0, "queries must surface neighbours");
        let recall = hit as f64 / total as f64;
        assert!(
            recall >= 0.99,
            "pruned neighbour recall@{k} {recall:.4} below the 0.99 floor on n={n_users}"
        );
    }
}

/// A candidate set below the fallback floor degrades to an exact scan
/// instead of serving a starved neighbourhood.
#[test]
fn tiny_candidate_set_falls_back_to_exact() {
    let w = world(60, 40, 0xFA11);
    let ctx = Ctx::new(&w.ratings, &w.catalog);
    let engine = engine_with(IndexConfig::default());
    let brute = UserKnn::default();
    let pruned = UserKnn::default().with_engine(Arc::clone(&engine), ScanMode::Pruned);
    // 60 users < fallback floor (min_candidates 64, and 4k = 80): every
    // request must fall back, making pruned bit-identical to brute.
    for u in (0..60u32).step_by(5) {
        assert_bit_identical(
            &pruned.recommend(&ctx, UserId(u), 10),
            &brute.recommend(&ctx, UserId(u), 10),
            &format!("fallback user {u}"),
        );
    }
    let stats = engine.stats();
    assert!(stats.exact_fallbacks > 0, "expected fallbacks: {stats:?}");
    assert_eq!(
        stats.pruned_scans, 0,
        "nothing should have pruned: {stats:?}"
    );
}

/// One store: right after `RatingsMatrix::rate`, with no
/// `notify_deltas` call, an exact-engine ranking sees the new rating and
/// matches the stateless brute path bit for bit, for the writer and for
/// users whose neighbourhoods the write moved.
#[test]
fn engine_observes_rating_updates() {
    let mut w = world(100, 50, 0xAB1E);
    let exact =
        UserKnn::default().with_engine(engine_with(IndexConfig::default()), ScanMode::Exact);
    let brute = UserKnn::default();
    let user = UserId(3);
    let before = {
        let ctx = Ctx::new(&w.ratings, &w.catalog);
        exact.recommend(&ctx, user, 5)
    };
    let target = before.first().expect("needs a recommendation").item;
    // The user rates their own top pick; it must vanish from the list.
    w.ratings.rate(user, target, 1.0).unwrap();
    let ctx = Ctx::new(&w.ratings, &w.catalog);
    let after = exact.recommend(&ctx, user, 5);
    assert!(
        after.iter().all(|s| s.item != target),
        "rated item must drop"
    );
    for u in (0..100u32).step_by(9).chain([user.raw()]) {
        let label = format!("post-mutation user {u}");
        let (exact, brute) = (
            exact.recommend(&ctx, UserId(u), 5),
            brute.recommend(&ctx, UserId(u), 5),
        );
        assert_bit_identical(&exact, &brute, &label);
    }
}

/// One store: serving reads and writes share the world's matrix. A
/// write through `MutableWorld::apply`, made while no reader holds the
/// world, leaves an untouched user's row where it was, so the write
/// path never copies the store and the engine keeps no handle on the
/// matrix between requests; and the next ranking sees the write.
#[test]
fn serving_writes_never_copy_the_store() {
    let w = world(4000, 150, 0xFEED);
    for mode in [ScanMode::Pruned, ScanMode::Exact] {
        let engine = engine_with(IndexConfig::default());
        let model = UserKnn::default().with_engine(Arc::clone(&engine), mode);
        let live = MutableWorld::new(w.clone());
        let (writer, bystander) = (UserId(7), UserId(11));
        let row_at = |u: UserId| live.read().ratings.user_ratings(u).as_ptr() as usize;
        let read = |u: UserId| {
            let world = live.read();
            model.recommend(&Ctx::new(&world.ratings, &world.catalog), u, 5)
        };
        // The first reads build the index.
        assert!(!read(writer).is_empty());
        read(bystander);
        // `w` still shares the store with `live`: the first write
        // unshares it, and every later one must write in place.
        let write = |item: ItemId, value: f64| {
            let record = WalRecord::Rate {
                user: writer,
                item,
                value,
            };
            live.apply(&record, |_, deltas| engine.notify_deltas(deltas))
                .unwrap();
        };
        write(read(writer)[0].item, 1.0);
        let before = row_at(bystander);
        for _ in 0..3 {
            let top = read(writer)[0].item;
            write(top, 1.0);
            assert_eq!(
                row_at(bystander),
                before,
                "{}: a write moved an untouched row",
                mode.name()
            );
            assert!(
                read(writer).iter().all(|s| s.item != top),
                "{}: the rated item must drop",
                mode.name()
            );
        }
        if mode == ScanMode::Pruned {
            assert!(
                engine.stats().index_patches > 0,
                "writes reassign the index"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The raw kernel at any tile size equals the tile-1 kernel: the
    /// sims table is bit-for-bit the same, full range or subset.
    #[test]
    fn kernel_sims_tile_invariant(seed in 0u64..500, tile in 1usize..300, user in 0u32..30) {
        let w = movies::generate(&WorldConfig {
            n_users: 30,
            n_items: 25,
            density: 0.3,
            seed,
            ..WorldConfig::default()
        });
        let ratings = &w.ratings;
        let params = SimParams {
            similarity: Similarity::Pearson,
            min_overlap: 2,
            significance: 10,
        };
        let (mut a, mut b) = (Vec::new(), Vec::new());
        scan_similarities(ratings, &params, UserId(user), None, 1, &mut a);
        scan_similarities(ratings, &params, UserId(user), None, tile, &mut b);
        for v in 0..ratings.n_users() {
            prop_assert_eq!(a[v].to_bits(), b[v].to_bits(), "full scan, candidate {}", v);
        }
        let subset: Vec<u32> = (0..30u32).step_by(3).collect();
        scan_similarities(ratings, &params, UserId(user), Some(&subset), tile, &mut b);
        for v in 0..ratings.n_users() {
            let want = if subset.contains(&(v as u32)) { a[v] } else { 0.0 };
            prop_assert_eq!(b[v].to_bits(), want.to_bits(), "subset scan, candidate {}", v);
        }
    }
}

/// An empty matrix and a single-user world must not panic anywhere in
/// the engine paths.
#[test]
fn degenerate_worlds_are_safe() {
    let m = RatingsMatrix::new(0, 0, exrec_types::RatingScale::FIVE_STAR);
    let params = SimParams {
        similarity: Similarity::Pearson,
        min_overlap: 2,
        significance: 0,
    };
    let mut sims = Vec::new();
    let outcome = scan_similarities(&m, &params, UserId(0), None, 16, &mut sims);
    assert_eq!(outcome.scored, 0);

    let w = world(1, 5, 0x01);
    let ctx = Ctx::new(&w.ratings, &w.catalog);
    let model =
        UserKnn::default().with_engine(engine_with(IndexConfig::default()), ScanMode::Pruned);
    // One user has no neighbours; must return empty, not panic.
    assert!(model.recommend(&ctx, UserId(0), 5).is_empty());
    assert!(model.recommend(&ctx, UserId(99), 5).is_empty());
}
