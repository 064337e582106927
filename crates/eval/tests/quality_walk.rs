//! The shared quality walk against the per-interface loop it replaced.
//!
//! `score_interfaces` walks the sampled `(user, item)` pairs once and
//! feeds every interface from one model call per pair. The oracle below
//! is the earlier loop, which walked the same pairs once per interface
//! and called the model each time. Both must produce the same report,
//! bit for bit, and the walk must make one call per sampled pair.

use std::sync::Arc;

use exrec_algo::baseline::Popularity;
use exrec_algo::content::{TfIdfConfig, TfIdfModel};
use exrec_algo::item_knn::{ItemKnn, ItemKnnConfig};
use exrec_algo::{
    Ctx, IndexConfig, InstrumentedRecommender, KernelConfig, Recommender, ScanEngine, ScanMode,
    UserKnn,
};
use exrec_core::engine::Explainer;
use exrec_core::interfaces::InterfaceId;
use exrec_core::quality::{ablation_fidelity, QualityProbe};
use exrec_data::synth::{movies, WorldConfig};
use exrec_data::World;
use exrec_eval::quality::{evidence_relevance, score_interfaces, InterfaceQuality, QualityConfig};
use exrec_obs::Telemetry;

/// One interface scored on a walk of its own: users with at least two
/// ratings in id order, their first two unrated items that have a
/// rater, one `explain_with_evidence` (one model call) per pair, until
/// `sample_pairs` successes or `10 × sample_pairs` pairs.
fn score_interface_oracle(
    world: &World,
    model: &(dyn Recommender + Sync),
    id: InterfaceId,
    config: &QualityConfig,
) -> InterfaceQuality {
    let ctx = Ctx::new(&world.ratings, &world.catalog);
    let explainer = Explainer::new(model, id);
    let span = world.ratings.scale().span();

    let mut q = InterfaceQuality {
        name: id.key().to_owned(),
        samples: 0,
        fidelity: 0.0,
        evidence_precision: 0.0,
        evidence_recall: 0.0,
        evidence_f1: 0.0,
        coverage: 0.0,
        provenance_depth: 0.0,
        reading_cost: 0.0,
    };
    let mut pr_samples = 0usize;
    let mut attempts = 0usize;
    let max_attempts = config.sample_pairs * 10;

    'outer: for user in world.ratings.users() {
        if world.ratings.user_ratings(user).len() < 2 {
            continue;
        }
        let mut taken = 0usize;
        for item in world.catalog.ids() {
            if q.samples >= config.sample_pairs || attempts >= max_attempts {
                break 'outer;
            }
            if taken >= 2 {
                break;
            }
            if world.ratings.rating(user, item).is_some()
                || world.ratings.item_ratings(item).is_empty()
            {
                continue;
            }
            taken += 1;
            attempts += 1;
            let Ok((_, explanation, evidence)) = explainer.explain_with_evidence(&ctx, user, item)
            else {
                continue;
            };
            let baseline = world
                .ratings
                .user_mean(user)
                .unwrap_or_else(|| world.ratings.global_mean());
            let probe = QualityProbe::measure(&explanation, &evidence, baseline, span);
            q.samples += 1;
            q.fidelity += ablation_fidelity(&evidence, config.ablate_top, baseline, span);
            q.coverage += probe.coverage;
            q.provenance_depth += probe.provenance_depth as f64;
            q.reading_cost += explanation.reading_cost() as f64;
            if let Some((precision, recall)) = evidence_relevance(world, user, item, &evidence) {
                pr_samples += 1;
                q.evidence_precision += precision;
                q.evidence_recall += recall;
            }
        }
    }

    if q.samples > 0 {
        let n = q.samples as f64;
        q.fidelity /= n;
        q.coverage /= n;
        q.provenance_depth /= n;
        q.reading_cost /= n;
    }
    if pr_samples > 0 {
        q.evidence_precision /= pr_samples as f64;
        q.evidence_recall /= pr_samples as f64;
        let (p, r) = (q.evidence_precision, q.evidence_recall);
        if p + r > 1e-12 {
            q.evidence_f1 = 2.0 * p * r / (p + r);
        }
    }
    q
}

/// Every measured field of `q` as bits: equal arrays mean bit-identical
/// scores.
fn bits(q: &InterfaceQuality) -> [u64; 7] {
    [
        q.fidelity,
        q.evidence_precision,
        q.evidence_recall,
        q.evidence_f1,
        q.coverage,
        q.provenance_depth,
        q.reading_cost,
    ]
    .map(f64::to_bits)
}

fn assert_bit_identical(got: &[InterfaceQuality], want: &[InterfaceQuality], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: interface count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(
            (&g.name, g.samples, bits(g)),
            (&w.name, w.samples, bits(w)),
            "{label}: {g:?} vs oracle {w:?}"
        );
    }
}

/// A movies world with holes the walk must step over: every fourth user
/// keeps a single rating, one user keeps none, and one item loses all
/// its raters.
fn ragged_world() -> World {
    let mut world = movies::generate(&WorldConfig {
        n_users: 300,
        n_items: 120,
        density: 0.1,
        seed: 0xEC,
        ..WorldConfig::default()
    });
    let users: Vec<_> = world.ratings.users().collect();
    for user in users {
        let rated: Vec<_> = world
            .ratings
            .user_ratings(user)
            .iter()
            .map(|&(item, _)| item)
            .collect();
        let keep = match user.0 {
            1 => 0,
            u if u % 4 == 0 => 1,
            _ => continue,
        };
        for &item in &rated[keep..] {
            world.ratings.unrate(user, item).expect("rated pair");
        }
    }
    let item = world.catalog.ids().nth(3).expect("catalog has items");
    let raters: Vec<_> = world
        .ratings
        .item_ratings(item)
        .iter()
        .map(|&(u, _)| u)
        .collect();
    for user in raters {
        world.ratings.unrate(user, item).expect("rated pair");
    }
    world
}

#[test]
fn shared_walk_matches_the_per_interface_oracle() {
    let world = ragged_world();
    assert!(world
        .ratings
        .users()
        .any(|u| world.ratings.user_ratings(u).len() < 2));
    let ctx = Ctx::new(&world.ratings, &world.catalog);
    let engine = |mode| {
        UserKnn::default().with_engine(
            Arc::new(ScanEngine::new(
                KernelConfig::default(),
                IndexConfig::default(),
            )),
            mode,
        )
    };
    let models: Vec<(&str, Box<dyn Recommender + Sync>)> = vec![
        ("user-knn brute", Box::new(UserKnn::default())),
        ("user-knn exact", Box::new(engine(ScanMode::Exact))),
        ("user-knn pruned", Box::new(engine(ScanMode::Pruned))),
        (
            "item-knn",
            Box::new(ItemKnn::fit(&ctx, ItemKnnConfig::default()).expect("item-knn fits")),
        ),
        (
            "tf-idf",
            Box::new(TfIdfModel::fit(&ctx, TfIdfConfig::default()).expect("tfidf fits")),
        ),
        ("popularity", Box::new(Popularity::default())),
    ];
    for (label, model) in &models {
        for sample_pairs in [1, 3, 16] {
            let config = QualityConfig {
                sample_pairs,
                ..QualityConfig::default()
            };
            let want: Vec<InterfaceQuality> = InterfaceId::ALL
                .into_iter()
                .map(|id| score_interface_oracle(&world, model.as_ref(), id, &config))
                .collect();
            assert!(
                want.iter().any(|q| q.samples > 0),
                "{label}: the model feeds no interface"
            );
            let got = score_interfaces(&world, model.as_ref(), &config);
            assert_bit_identical(&got, &want, &format!("{label} @ {sample_pairs} pairs"));
        }
    }
}

/// `algo.predict.*` plus `algo.predict_err.*`: every model call, whether
/// or not it produced a prediction.
fn model_calls(telemetry: &Telemetry, name: &str) -> u64 {
    let counters = telemetry.report().counters;
    [
        format!("algo.predict.{name}"),
        format!("algo.predict_err.{name}"),
    ]
    .iter()
    .map(|key| counters.get(key).copied().unwrap_or(0))
    .sum()
}

#[test]
fn one_model_call_per_sampled_pair() {
    // The serving edge's default world and start-up pass (exrec-serve's
    // `AppConfig::default()`: 2,000 users × 300 items at density 0.05,
    // seed 0xEC, 16 quality pairs). User-kNN feeds 16 interfaces within
    // the first pairs; the other 5 never succeed, so the walk runs to
    // its 10 × 16 pair limit.
    let world = movies::generate(&WorldConfig {
        n_users: 2_000,
        n_items: 300,
        density: 0.05,
        seed: 0xEC,
        ..WorldConfig::default()
    });
    let config = QualityConfig {
        sample_pairs: 16,
        ..QualityConfig::default()
    };

    let telemetry = Telemetry::default();
    let model = InstrumentedRecommender::new(UserKnn::default(), &telemetry);
    let scored = score_interfaces(&world, &model, &config);
    assert_eq!(model_calls(&telemetry, "user-knn"), 160);
    assert_eq!(scored.iter().filter(|q| q.samples == 16).count(), 16);
    assert_eq!(scored.iter().filter(|q| q.samples == 0).count(), 5);

    // The per-interface loop walked the same pairs once per interface:
    // 16 × 16 calls for the fed interfaces, 5 × 160 for the rest.
    let telemetry = Telemetry::default();
    let model = InstrumentedRecommender::new(UserKnn::default(), &telemetry);
    for id in InterfaceId::ALL {
        score_interface_oracle(&world, &model, id, &config);
    }
    assert_eq!(model_calls(&telemetry, "user-knn"), 16 * 16 + 5 * 160);
}
