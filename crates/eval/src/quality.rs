//! Offline explanation-quality metric suite (ROADMAP item 4).
//!
//! The survey's studies measure what explanations do to *users*; this
//! module measures what explanations say about the *model*, using the
//! metric families of the offline-evaluation literature (Zanon et al.,
//! "Can Offline Metrics Measure Explanation Goals?"; Chen et al.,
//! "Measuring 'Why'"):
//!
//! * **Model fidelity** — does the cited evidence actually drive the
//!   prediction? Measured by citation ablation
//!   ([`exrec_core::quality::ablation_fidelity`]): remove the top-cited
//!   evidence unit, recompute the evidence-implied score, normalize the
//!   shift by the rating-scale span.
//! * **Evidence precision/recall/F1** — are the cited neighbors, items
//!   and features the *right* ones? The synthetic worlds carry latent
//!   ground truth (user affinity, item prototypes, keyword bags), so the
//!   relevant set is known exactly — something no real-world dataset
//!   provides.
//! * **Per-aim aggregates** — each of the survey's seven aims weighs the
//!   measured components differently ([`aim_score`]); the best measured
//!   interface per aim is compared against the *static* default (the
//!   first catalog interface declaring the aim), which is how the
//!   registry's aim-fit selection earns its keep.
//!
//! Everything is seed-deterministic. Scoring is one walk per model
//! group: each sampled pair costs one model call, whose evidence feeds
//! every interface the model serves. [`run`] fans the four walks out
//! over the work-stealing pool — results are identical at any thread
//! count. The `repro --offline-metrics` binary wraps [`run`] and writes
//! the schema-versioned `quality_report.json` that `benchdiff` diffs.

use std::collections::HashSet;

use exrec_algo::content::{TfIdfConfig, TfIdfModel};
use exrec_algo::item_knn::{ItemKnn, ItemKnnConfig};
use exrec_algo::knowledge::{Constraint, Maut, Requirement};
use exrec_algo::{Ctx, ModelEvidence, Recommender, UserKnn};
use exrec_core::aims::Aim;
use exrec_core::interfaces::{EvidenceNeed, ExplainInput, InterfaceId};
use exrec_core::quality::{ablation_fidelity, QualityProbe, MAX_PROVENANCE_DEPTH};
use exrec_data::synth::{cameras, movies, WorldConfig};
use exrec_data::World;
use exrec_types::{ItemId, UserId};
use serde::{Deserialize, Serialize};

/// Version of the [`QualityReport`] JSON shape. Bump on breaking
/// changes; `benchdiff` refuses to diff mismatched versions.
pub const QUALITY_SCHEMA_VERSION: u32 = 1;

/// Shape of an offline quality run.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityConfig {
    /// World seed.
    pub seed: u64,
    /// Users in the scored worlds.
    pub n_users: usize,
    /// Items in the scored worlds.
    pub n_items: usize,
    /// Successful `(user, item)` samples scored per interface.
    pub sample_pairs: usize,
    /// Citation units removed by the fidelity ablation.
    pub ablate_top: usize,
}

impl Default for QualityConfig {
    fn default() -> Self {
        QualityConfig {
            seed: 0xEC,
            n_users: 120,
            n_items: 90,
            sample_pairs: 40,
            ablate_top: 1,
        }
    }
}

impl QualityConfig {
    /// A reduced configuration for smoke tests and CI (`--quick`).
    pub fn quick() -> Self {
        QualityConfig {
            n_users: 60,
            n_items: 48,
            sample_pairs: 10,
            ..QualityConfig::default()
        }
    }
}

/// Measured quality of one explanation interface, averaged over the
/// sampled pairs. The `name` field keys the report's interface array
/// for `benchdiff`'s name-keyed diffing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterfaceQuality {
    /// Interface key (e.g. `"clustered_histogram"`).
    pub name: String,
    /// Samples successfully scored (0 when the pairing model cannot
    /// feed this interface's evidence needs).
    pub samples: usize,
    /// Mean citation-ablation fidelity in `[0, 1]`.
    pub fidelity: f64,
    /// Mean evidence precision in `[0, 1]`.
    pub evidence_precision: f64,
    /// Mean evidence recall in `[0, 1]`.
    pub evidence_recall: f64,
    /// F1 of the mean precision and recall.
    pub evidence_f1: f64,
    /// Mean evidence coverage in `[0, 1]`.
    pub coverage: f64,
    /// Mean provenance depth, `0..=4`.
    pub provenance_depth: f64,
    /// Mean simulated reading cost (ticks).
    pub reading_cost: f64,
}

impl InterfaceQuality {
    fn empty(id: InterfaceId) -> Self {
        InterfaceQuality {
            name: id.key().to_owned(),
            samples: 0,
            fidelity: 0.0,
            evidence_precision: 0.0,
            evidence_recall: 0.0,
            evidence_f1: 0.0,
            coverage: 0.0,
            provenance_depth: 0.0,
            reading_cost: 0.0,
        }
    }
}

/// Per-aim aggregate: the measured best interface against the static
/// catalog default. Name-keyed for `benchdiff`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AimQuality {
    /// Lowercased aim name (e.g. `"transparency"`).
    pub name: String,
    /// Interface key with the highest measured [`aim_score`].
    pub best_interface: String,
    /// Measured score of `best_interface` for this aim.
    pub score: f64,
    /// The static default: the first catalog interface declaring the
    /// aim, chosen without measurement.
    pub static_default: String,
    /// Measured score of the static default for this aim.
    pub static_score: f64,
    /// Number of scoreable candidate interfaces declaring the aim.
    pub candidates: usize,
}

/// The complete offline quality report: every registered interface ×
/// every aim.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualityReport {
    /// [`QUALITY_SCHEMA_VERSION`] at write time.
    pub schema_version: u32,
    /// Label of the world family the scores came from.
    pub world: String,
    /// Per-interface measurements, catalog order, all 21 present.
    pub interfaces: Vec<InterfaceQuality>,
    /// Per-aim aggregates, Table 1 order, all 7 present.
    pub aims: Vec<AimQuality>,
}

impl QualityReport {
    /// Serializes to pretty-printed JSON.
    ///
    /// # Panics
    ///
    /// Never: the report contains no non-serializable values.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Parses a report back from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying parse error on malformed input.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// The measured entry for an interface key, if present.
    pub fn interface(&self, key: &str) -> Option<&InterfaceQuality> {
        self.interfaces.iter().find(|i| i.name == key)
    }

    /// The aggregate for an aim, if present.
    pub fn aim(&self, aim: Aim) -> Option<&AimQuality> {
        let name = aim.name().to_ascii_lowercase();
        self.aims.iter().find(|a| a.name == name)
    }

    /// Assembles a report from per-interface measurements: computes the
    /// per-aim aggregates and stamps the schema version.
    pub fn assemble(world: &str, interfaces: Vec<InterfaceQuality>) -> Self {
        let aims = Aim::ALL
            .iter()
            .map(|&aim| {
                let aim_name = aim.name().to_ascii_lowercase();
                let static_id = static_default_for_aim(aim);
                let mut best: Option<(&InterfaceQuality, f64)> = None;
                let mut candidates = 0usize;
                for id in InterfaceId::ALL {
                    if !id.descriptor().aims.contains(aim) {
                        continue;
                    }
                    let Some(q) = interfaces.iter().find(|q| q.name == id.key()) else {
                        continue;
                    };
                    if q.samples == 0 {
                        continue;
                    }
                    candidates += 1;
                    let score = aim_score(q, aim);
                    // Strict > keeps the catalog-order tie-break.
                    if best.map(|(_, s)| score > s).unwrap_or(true) {
                        best = Some((q, score));
                    }
                }
                let static_key = static_id.map(|id| id.key().to_owned()).unwrap_or_default();
                let static_score = interfaces
                    .iter()
                    .find(|q| q.name == static_key)
                    .filter(|q| q.samples > 0)
                    .map(|q| aim_score(q, aim))
                    .unwrap_or(0.0);
                AimQuality {
                    name: aim_name,
                    best_interface: best.map(|(q, _)| q.name.clone()).unwrap_or_default(),
                    score: best.map(|(_, s)| s).unwrap_or(0.0),
                    static_default: static_key,
                    static_score,
                    candidates,
                }
            })
            .collect();
        QualityReport {
            schema_version: QUALITY_SCHEMA_VERSION,
            world: world.to_owned(),
            interfaces,
            aims,
        }
    }
}

/// The static (unmeasured) default interface for an aim: the first
/// catalog interface whose declared [`exrec_core::aims::AimProfile`]
/// contains it — the choice a Table 2 lookup would make.
pub fn static_default_for_aim(aim: Aim) -> Option<InterfaceId> {
    InterfaceId::ALL
        .into_iter()
        .find(|id| id.descriptor().aims.contains(aim))
}

/// Combines an interface's measured components into a score for one
/// aim, in `[0, 1]`.
///
/// The weights encode what each survey aim rewards: transparency wants
/// faithful, fully-surfaced evidence; trust wants *correct* citations;
/// efficiency wants cheap reading; persuasiveness wants rich, visible
/// evidence, and so on. An interface with no successful samples scores
/// `0.0` — an unmeasurable interface never wins a measured selection.
pub fn aim_score(q: &InterfaceQuality, aim: Aim) -> f64 {
    if q.samples == 0 {
        return 0.0;
    }
    let f = q.fidelity;
    let p = q.evidence_precision;
    let r = q.evidence_recall;
    let c = q.coverage;
    let d = q.provenance_depth / MAX_PROVENANCE_DEPTH as f64;
    // Cheap-to-read bonus: 1 at zero cost, 0.5 at 12 ticks.
    let e = 1.0 / (1.0 + q.reading_cost / 12.0);
    let score = match aim {
        Aim::Transparency => 0.40 * f + 0.25 * c + 0.20 * d + 0.15 * r,
        Aim::Scrutability => 0.30 * d + 0.25 * c + 0.25 * p + 0.20 * f,
        Aim::Trust => 0.35 * p + 0.30 * f + 0.20 * c + 0.15 * d,
        Aim::Effectiveness => 0.35 * p + 0.30 * r + 0.35 * f,
        Aim::Persuasiveness => 0.35 * c + 0.30 * d + 0.20 * p + 0.15 * e,
        Aim::Efficiency => 0.55 * e + 0.25 * f + 0.20 * p,
        Aim::Satisfaction => 0.30 * c + 0.25 * e + 0.25 * d + 0.20 * f,
    };
    score.clamp(0.0, 1.0)
}

/// Evidence precision/recall against the world's latent ground truth.
///
/// Returns `None` when no relevant set can be constructed for the pair
/// (the sample then contributes to fidelity/coverage but not to P/R).
///
/// * `UserNeighbors` — relevant: the top-half of the item's raters by
///   true latent affinity to the target user.
/// * `ItemNeighbors` — relevant: the user's rated items sharing the
///   target item's prototype.
/// * `Content` — relevant: the item's keyword bag plus its prototype
///   name.
/// * `Utility` — terms are definitionally the stated requirements;
///   precision is the positively-weighted fraction.
/// * `Popularity` — citation truthfulness: the cited mean against the
///   noise-free true mean rating.
/// * `Latent` — anonymous factors are unverifiable citations: 0/0 (the
///   accuracy study's "accurate but explanation-poor" result, measured).
pub fn evidence_relevance(
    world: &World,
    user: UserId,
    item: ItemId,
    evidence: &ModelEvidence,
) -> Option<(f64, f64)> {
    match evidence {
        ModelEvidence::UserNeighbors { neighbors } => {
            if neighbors.is_empty() {
                return None;
            }
            let candidates: Vec<UserId> = world
                .ratings
                .item_ratings(item)
                .iter()
                .map(|&(u, _)| u)
                .filter(|&u| u != user)
                .collect();
            if candidates.len() < 2 {
                return None;
            }
            let mut by_affinity: Vec<(UserId, f64)> = candidates
                .iter()
                .map(|&v| (v, world.latent.user_affinity(user, v)))
                .collect();
            by_affinity.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.0 .0.cmp(&b.0 .0))
            });
            let relevant: HashSet<UserId> = by_affinity
                .iter()
                .take((by_affinity.len() / 2).max(1))
                .map(|&(v, _)| v)
                .collect();
            let cited: Vec<UserId> = neighbors.iter().map(|n| n.user).collect();
            let hits = cited.iter().filter(|u| relevant.contains(u)).count();
            Some((
                hits as f64 / cited.len() as f64,
                hits as f64 / relevant.len() as f64,
            ))
        }
        ModelEvidence::ItemNeighbors { anchors } => {
            if anchors.is_empty() {
                return None;
            }
            let proto = world.prototypes[item.index()];
            let relevant: HashSet<ItemId> = world
                .ratings
                .user_ratings(user)
                .iter()
                .map(|&(i, _)| i)
                .filter(|i| world.prototypes[i.index()] == proto)
                .collect();
            if relevant.is_empty() {
                return None;
            }
            let cited: Vec<ItemId> = anchors.iter().map(|a| a.item).collect();
            let hits = cited.iter().filter(|i| relevant.contains(i)).count();
            Some((
                hits as f64 / cited.len() as f64,
                hits as f64 / relevant.len() as f64,
            ))
        }
        ModelEvidence::Content { features, .. } => {
            if features.is_empty() {
                return None;
            }
            let entry = world.catalog.get(item).ok()?;
            let mut relevant: HashSet<String> = entry
                .keywords
                .iter()
                .map(|k| k.to_ascii_lowercase())
                .collect();
            relevant.insert(world.prototype_of(item).to_ascii_lowercase());
            if relevant.is_empty() {
                return None;
            }
            let cited: Vec<String> = features
                .iter()
                .map(|f| f.feature.to_ascii_lowercase())
                .collect();
            let hits = cited.iter().filter(|f| relevant.contains(*f)).count();
            Some((
                hits as f64 / cited.len() as f64,
                hits as f64 / relevant.len() as f64,
            ))
        }
        ModelEvidence::Utility { terms, .. } => {
            if terms.is_empty() {
                return None;
            }
            let useful = terms.iter().filter(|t| t.weight > 0.0).count();
            Some((useful as f64 / terms.len() as f64, 1.0))
        }
        ModelEvidence::Popularity { mean, count } => {
            if *count == 0 {
                return None;
            }
            let scale = world.ratings.scale();
            let users: Vec<UserId> = world.ratings.users().take(64).collect();
            if users.is_empty() {
                return None;
            }
            let true_mean = users
                .iter()
                .map(|&u| world.latent.true_rating(u, item, scale))
                .sum::<f64>()
                / users.len() as f64;
            let truthfulness = (1.0 - (mean - true_mean).abs() / scale.span()).clamp(0.0, 1.0);
            Some((truthfulness, truthfulness))
        }
        ModelEvidence::Latent { .. } => Some((0.0, 0.0)),
        _ => None,
    }
}

/// Running sums for one interface during a [`walk`].
struct Tally {
    q: InterfaceQuality,
    pr_samples: usize,
}

impl Tally {
    /// Turns the sums into means; F1 is taken of the mean precision and
    /// recall.
    fn finish(self) -> InterfaceQuality {
        let Tally { mut q, pr_samples } = self;
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
}

/// Scores `ids` against one (world, model) pairing in a single walk
/// over the sampled pairs.
///
/// Pairs come in a fixed order — users with at least two ratings in id
/// order, each with their first two unrated items that have a rater —
/// and the model predicts each pair once. Every interface still short
/// of `config.sample_pairs` explanations then tries that pair's
/// evidence; pairs it cannot explain (evidence mismatch) are skipped.
/// The walk stops once every interface is full or after
/// `10 × sample_pairs` pairs, so each interface's sums grow exactly as
/// they would on a walk of its own, and an interface the model can
/// never feed scores zero samples.
fn walk(
    world: &World,
    model: &(dyn Recommender + Sync),
    ids: &[InterfaceId],
    config: &QualityConfig,
) -> Vec<InterfaceQuality> {
    let ratings = &world.ratings;
    let ctx = Ctx::new(ratings, &world.catalog);
    let span = ratings.scale().span();
    let pairs = ratings
        .users()
        .filter(|&user| ratings.user_ratings(user).len() >= 2)
        .flat_map(|user| {
            world
                .catalog
                .ids()
                .filter(move |&item| {
                    ratings.rating(user, item).is_none() && !ratings.item_ratings(item).is_empty()
                })
                .take(2)
                .map(move |item| (user, item))
        });

    let mut tallies: Vec<Tally> = ids
        .iter()
        .map(|&id| Tally {
            q: InterfaceQuality::empty(id),
            pr_samples: 0,
        })
        .collect();
    for (user, item) in pairs.take(config.sample_pairs * 10) {
        if tallies.iter().all(|t| t.q.samples >= config.sample_pairs) {
            break;
        }
        let Ok((prediction, evidence)) = model.predict_with_evidence(&ctx, user, item) else {
            continue;
        };
        let input = ExplainInput {
            ctx: &ctx,
            user,
            item,
            prediction,
            evidence: &evidence,
        };
        let baseline = ratings
            .user_mean(user)
            .unwrap_or_else(|| ratings.global_mean());
        // Fidelity and relevance depend on the pair's evidence alone.
        let mut shared = None;
        for (id, t) in ids.iter().zip(&mut tallies) {
            if t.q.samples >= config.sample_pairs {
                continue;
            }
            let Ok(explanation) = id.generate(&input) else {
                continue;
            };
            let (fidelity, relevance) = *shared.get_or_insert_with(|| {
                (
                    ablation_fidelity(&evidence, config.ablate_top, baseline, span),
                    evidence_relevance(world, user, item, &evidence),
                )
            });
            let probe = QualityProbe::measure(&explanation, &evidence, baseline, span);
            t.q.samples += 1;
            t.q.fidelity += fidelity;
            t.q.coverage += probe.coverage;
            t.q.provenance_depth += probe.provenance_depth as f64;
            t.q.reading_cost += explanation.reading_cost() as f64;
            if let Some((precision, recall)) = relevance {
                t.pr_samples += 1;
                t.q.evidence_precision += precision;
                t.q.evidence_recall += recall;
            }
        }
    }
    tallies.into_iter().map(Tally::finish).collect()
}

/// Scores every registered interface against a single (world, model)
/// pairing — the serving edge's view, where one model feeds all
/// interfaces — in one walk: each sampled pair costs one model call.
/// Interfaces the model cannot feed report zero samples.
pub fn score_interfaces(
    world: &World,
    model: &(dyn Recommender + Sync),
    config: &QualityConfig,
) -> Vec<InterfaceQuality> {
    walk(world, model, &InterfaceId::ALL, config)
}

/// Runs the full offline suite: every registered interface scored with
/// a model matched to its evidence needs, on the world family that
/// exercises it (movies for CF/content, cameras for knowledge-based
/// utility), then aggregated per aim.
///
/// Interfaces are grouped by the model that feeds them, and the four
/// walks fan out over `threads` workers
/// ([`exrec_algo::batch::parallel_map`]); each walk is a pure function
/// of the config, so the report is identical at any thread count.
pub fn run(config: &QualityConfig, threads: usize) -> QualityReport {
    let world = movies::generate(&WorldConfig {
        n_users: config.n_users,
        n_items: config.n_items,
        density: 0.25,
        seed: config.seed,
        ..WorldConfig::default()
    });
    let camera_world = cameras::generate(&WorldConfig {
        n_users: (config.n_users / 2).max(16),
        n_items: (config.n_items / 2).max(16),
        density: 0.25,
        seed: config.seed,
        ..WorldConfig::default()
    });
    let ctx = Ctx::new(&world.ratings, &world.catalog);

    let user_knn = UserKnn::default();
    let item_knn = ItemKnn::fit(&ctx, ItemKnnConfig::default()).expect("item-knn fits");
    let tfidf = TfIdfModel::fit(&ctx, TfIdfConfig::default()).expect("tfidf fits");
    let maut = Maut::new(vec![
        Requirement::soft("price", Constraint::AtMost(600.0)).with_weight(2.0),
        Requirement::soft("resolution", Constraint::AtLeast(8.0)),
        Requirement::soft("zoom", Constraint::AtLeast(4.0)),
    ])
    .expect("positive weights");

    // Pair each interface with the model family that feeds its declared
    // evidence need; `Any` interfaces score against the serving default
    // (user-kNN).
    let group = |id: InterfaceId| match id.descriptor().needs {
        EvidenceNeed::UserNeighbors | EvidenceNeed::Any => 0,
        EvidenceNeed::ItemNeighbors => 1,
        EvidenceNeed::Content => 2,
        EvidenceNeed::Utility => 3,
    };
    let models: [(&World, &(dyn Recommender + Sync)); 4] = [
        (&world, &user_knn),
        (&world, &item_knn),
        (&world, &tfidf),
        (&camera_world, &maut),
    ];
    let mut walks = exrec_algo::batch::parallel_map(threads, &models, |g, &(world, model)| {
        let ids: Vec<InterfaceId> = InterfaceId::ALL
            .into_iter()
            .filter(|&id| group(id) == g)
            .collect();
        walk(world, model, &ids, config).into_iter()
    });
    let interfaces = InterfaceId::ALL
        .into_iter()
        .map(|id| walks[group(id)].next().expect("each walk scores its group"))
        .collect();

    QualityReport::assemble("movies+cameras", interfaces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exrec_algo::recommender::NeighborContribution;
    use exrec_core::engine::Explainer;

    fn quick_report() -> QualityReport {
        run(&QualityConfig::quick(), 1)
    }

    #[test]
    fn report_covers_all_interfaces_and_aims() {
        let report = quick_report();
        assert_eq!(report.schema_version, QUALITY_SCHEMA_VERSION);
        assert_eq!(report.interfaces.len(), InterfaceId::ALL.len());
        assert_eq!(report.aims.len(), Aim::ALL.len());
        for id in InterfaceId::ALL {
            assert!(
                report.interface(id.key()).is_some(),
                "missing interface {}",
                id.key()
            );
        }
        // Every evidence-need family produced at least one measurable
        // interface.
        let measured = report.interfaces.iter().filter(|q| q.samples > 0).count();
        assert!(measured >= 10, "only {measured} interfaces measured");
        for q in &report.interfaces {
            for v in [
                q.fidelity,
                q.evidence_precision,
                q.evidence_recall,
                q.evidence_f1,
                q.coverage,
            ] {
                assert!((0.0..=1.0).contains(&v), "{}: {v} out of range", q.name);
            }
            assert!(q.provenance_depth <= MAX_PROVENANCE_DEPTH as f64);
        }
    }

    #[test]
    fn aim_fit_selection_beats_the_static_default_somewhere() {
        let report = quick_report();
        let improved = report
            .aims
            .iter()
            .filter(|a| a.best_interface != a.static_default && a.score > a.static_score)
            .count();
        assert!(
            improved >= 1,
            "measured selection should beat the static default for at least one aim: {:?}",
            report.aims
        );
        // And selection never does worse than the static pick.
        for a in &report.aims {
            assert!(a.score >= a.static_score, "{}: regressed", a.name);
            assert!(!a.best_interface.is_empty(), "{}: no winner", a.name);
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = quick_report();
        let json = report.to_json();
        let back = QualityReport::from_json(&json).expect("parses");
        assert_eq!(back, report);
        // benchdiff keys arrays by `name`: every entry must carry one.
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        for section in ["/interfaces", "/aims"] {
            let arr = value.pointer(section).unwrap();
            let n = match section {
                "/interfaces" => InterfaceId::ALL.len(),
                _ => Aim::ALL.len(),
            };
            for i in 0..n {
                let name = value
                    .pointer(&format!("{section}/{i}/name"))
                    .and_then(|v| v.as_str());
                assert!(name.is_some(), "{section}[{i}] has no name key in {arr:?}");
            }
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let config = QualityConfig::quick();
        let one = run(&config, 1).to_json();
        let four = run(&config, 4).to_json();
        let eight = run(&config, 8).to_json();
        assert_eq!(one, four, "4 threads must match sequential");
        assert_eq!(one, eight, "8 threads must match sequential");
    }

    #[test]
    fn true_evidence_scores_strictly_higher_fidelity_than_decoy() {
        // The satellite property: an explanation citing the evidence
        // that drives the prediction must out-score one citing a
        // decoy set whose citations are decorative. The decoy keeps
        // the same neighbors but flattens every rating to the implied
        // mean — the citations no longer move the score.
        let world = movies::generate(&WorldConfig {
            n_users: 60,
            n_items: 48,
            density: 0.25,
            seed: 0xEC,
            ..WorldConfig::default()
        });
        let ctx = Ctx::new(&world.ratings, &world.catalog);
        let knn = UserKnn::default();
        let explainer = Explainer::new(&knn, InterfaceId::Histogram);
        let span = world.ratings.scale().span();

        let mut checked = 0usize;
        for user in world.ratings.users() {
            for item in world.catalog.ids().take(8) {
                if world.ratings.rating(user, item).is_some() {
                    continue;
                }
                let Ok((_, _, evidence)) = explainer.explain_with_evidence(&ctx, user, item) else {
                    continue;
                };
                let ModelEvidence::UserNeighbors { neighbors } = &evidence else {
                    continue;
                };
                if neighbors.len() < 2 {
                    continue;
                }
                let baseline = world
                    .ratings
                    .user_mean(user)
                    .unwrap_or_else(|| world.ratings.global_mean());
                let true_fidelity =
                    exrec_core::quality::ablation_fidelity(&evidence, 1, baseline, span);
                if true_fidelity <= 1e-9 {
                    continue; // Degenerate pair: nothing to out-score.
                }
                let implied = exrec_core::quality::evidence_score(&evidence, 0).unwrap();
                let decoy = ModelEvidence::UserNeighbors {
                    neighbors: neighbors
                        .iter()
                        .map(|n| NeighborContribution {
                            user: n.user,
                            similarity: n.similarity,
                            rating: implied,
                        })
                        .collect(),
                };
                let decoy_fidelity =
                    exrec_core::quality::ablation_fidelity(&decoy, 1, baseline, span);
                assert!(
                    true_fidelity > decoy_fidelity,
                    "true {true_fidelity} vs decoy {decoy_fidelity} (user {user:?}, item {item:?})"
                );
                checked += 1;
            }
            if checked >= 50 {
                break;
            }
        }
        assert!(checked >= 20, "only {checked} informative pairs found");
    }

    #[test]
    fn static_defaults_exist_for_every_aim() {
        for aim in Aim::ALL {
            let id = static_default_for_aim(aim);
            assert!(id.is_some(), "{aim}: no catalog interface declares it");
            assert!(id.unwrap().descriptor().aims.contains(aim));
        }
    }

    #[test]
    fn walk_stops_once_every_interface_is_full() {
        // Item-kNN feeds both item-neighbour interfaces on almost every
        // pair of this world, so the walk ends once both are full, long
        // before its 10 × `sample_pairs` pair limit.
        let world = movies::generate(&WorldConfig {
            n_users: 60,
            n_items: 48,
            density: 0.25,
            seed: 0xEC,
            ..WorldConfig::default()
        });
        let ctx = Ctx::new(&world.ratings, &world.catalog);
        let telemetry = exrec_obs::Telemetry::default();
        let model = exrec_algo::InstrumentedRecommender::new(
            ItemKnn::fit(&ctx, ItemKnnConfig::default()).expect("item-knn fits"),
            &telemetry,
        );
        let ids: Vec<InterfaceId> = InterfaceId::ALL
            .into_iter()
            .filter(|id| id.descriptor().needs == EvidenceNeed::ItemNeighbors)
            .collect();
        let config = QualityConfig::quick();
        let scored = walk(&world, &model, &ids, &config);
        assert!(scored.iter().all(|q| q.samples == config.sample_pairs));
        let counters = telemetry.report().counters;
        let calls = counters["algo.predict.item-knn"] + counters["algo.predict_err.item-knn"];
        assert!(
            calls < 2 * config.sample_pairs as u64,
            "{calls} model calls"
        );
    }
}
