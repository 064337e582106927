//! The [`Recommender`] trait and its typed [`ModelEvidence`].
//!
//! The survey's key structural observation is that explanation content
//! (collaborative / content / preference-based) is decoupled from the
//! recommendation algorithm. The toolkit enforces that boundary here:
//! recommenders expose *evidence* — who the neighbours were, which
//! features matched, which utility terms contributed — and the explanation
//! engine in `exrec-core` turns evidence into any of the survey's
//! explanation interfaces without knowing the algorithm.

use exrec_data::{Catalog, RatingsMatrix};
use exrec_types::{ItemId, Prediction, Result, UserId};

/// Borrowed view of the data a recommender operates over.
///
/// Recommenders do not own the ratings matrix: conversational interaction
/// (survey Section 5) mutates ratings mid-session, and models must observe
/// the change on the next call.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'a> {
    /// The observed ratings.
    pub ratings: &'a RatingsMatrix,
    /// The item catalog.
    pub catalog: &'a Catalog,
}

impl<'a> Ctx<'a> {
    /// Bundles a ratings matrix and catalog.
    pub fn new(ratings: &'a RatingsMatrix, catalog: &'a Catalog) -> Self {
        Self { ratings, catalog }
    }
}

/// A scored recommendation candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scored {
    /// The candidate item.
    pub item: ItemId,
    /// Predicted rating and confidence.
    pub prediction: Prediction,
}

/// One neighbour's contribution to a user-based CF prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighborContribution {
    /// The neighbouring user.
    pub user: UserId,
    /// Similarity to the target user, in `[-1, 1]`.
    pub similarity: f64,
    /// The rating this neighbour gave the target item.
    pub rating: f64,
}

/// One already-rated item anchoring an item-based CF prediction
/// ("similar to Oliver Twist, which you rated 5").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ItemAnchor {
    /// The anchoring (already-rated) item.
    pub item: ItemId,
    /// Similarity between the anchor and the target item.
    pub similarity: f64,
    /// The user's rating of the anchor.
    pub user_rating: f64,
}

/// A signed per-feature contribution from a content model
/// ("keyword 'orphan': +1.3", "author Charles Dickens: +2.0").
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureInfluence {
    /// Feature label, already human-readable (e.g. `keyword "orphan"`).
    pub feature: String,
    /// Signed contribution to the like/dislike decision.
    pub weight: f64,
}

/// The influence of one previously-rated item on a recommendation, as a
/// share of the total (survey Figure 3 shows these as percentages).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatedItemInfluence {
    /// The previously-rated item.
    pub item: ItemId,
    /// The user's rating of it.
    pub user_rating: f64,
    /// Influence share, non-negative; shares over all items sum to ~1.
    pub share: f64,
}

/// One attribute's contribution to a knowledge-based utility score
/// ("price 450 vs target ≤ 500: 0.9 × weight 0.4").
#[derive(Debug, Clone, PartialEq)]
pub struct UtilityTerm {
    /// Attribute name.
    pub attribute: String,
    /// Per-attribute satisfaction in `[0, 1]`.
    pub satisfaction: f64,
    /// The user's weight on the attribute.
    pub weight: f64,
    /// Human-readable account of how the item fares on this attribute.
    pub detail: String,
}

/// One anonymous latent factor's contribution to a matrix-factorization
/// score. Deliberately *not* human-readable — the point the survey makes
/// about accuracy metrics is mirrored here: the most accurate models can
/// be the hardest to explain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatentTerm {
    /// Factor index.
    pub factor: usize,
    /// Signed contribution `p_u[k] · q_i[k]`.
    pub contribution: f64,
}

/// Typed evidence for one `(user, item)` prediction.
///
/// This is the algorithm→explanation interface: every survey explanation
/// style is generated from one (or a fusion) of these variants.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelEvidence {
    /// User-based CF: the neighbours that produced the prediction.
    UserNeighbors {
        /// Contributions, strongest |similarity| first.
        neighbors: Vec<NeighborContribution>,
    },
    /// Item-based CF: rated items the target is similar to.
    ItemNeighbors {
        /// Anchors, most similar first.
        anchors: Vec<ItemAnchor>,
    },
    /// Content model: matched features plus per-rated-item influence.
    Content {
        /// Signed feature contributions, largest |weight| first.
        features: Vec<FeatureInfluence>,
        /// Influence of each previously-rated item, largest share first.
        influences: Vec<RatedItemInfluence>,
    },
    /// Knowledge-based: per-attribute utility breakdown.
    Utility {
        /// Terms in schema order.
        terms: Vec<UtilityTerm>,
        /// Weighted total in `[0, 1]`.
        total: f64,
    },
    /// Non-personalized: the item's rating statistics.
    Popularity {
        /// Mean observed rating.
        mean: f64,
        /// Number of ratings.
        count: usize,
    },
    /// Latent-factor model: anonymous factor contributions plus the bias
    /// part of the score. No content-style interface can verbalize this.
    Latent {
        /// Contributions, largest |contribution| first.
        terms: Vec<LatentTerm>,
        /// `μ + b_u + b_i`.
        bias: f64,
    },
}

impl ModelEvidence {
    /// Short tag for logging and dispatch tables.
    pub fn kind(&self) -> &'static str {
        match self {
            ModelEvidence::UserNeighbors { .. } => "user-neighbors",
            ModelEvidence::ItemNeighbors { .. } => "item-neighbors",
            ModelEvidence::Content { .. } => "content",
            ModelEvidence::Utility { .. } => "utility",
            ModelEvidence::Popularity { .. } => "popularity",
            ModelEvidence::Latent { .. } => "latent",
        }
    }
}

/// A recommender that can predict, rank and justify.
pub trait Recommender {
    /// Stable algorithm name (e.g. `"user-knn"`).
    fn name(&self) -> &'static str;

    /// Predicts the rating `user` would give `item`.
    ///
    /// # Errors
    ///
    /// Implementations return [`exrec_types::Error::NoPrediction`] when the
    /// model has no basis for a prediction, and id-range errors for
    /// out-of-space ids.
    fn predict(&self, ctx: &Ctx<'_>, user: UserId, item: ItemId) -> Result<Prediction>;

    /// Produces the evidence behind [`Recommender::predict`] for the same
    /// pair. Must be consistent with the prediction.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Recommender::predict`].
    fn evidence(&self, ctx: &Ctx<'_>, user: UserId, item: ItemId) -> Result<ModelEvidence>;

    /// [`Recommender::predict`] and [`Recommender::evidence`] for one
    /// pair in one call. The default runs the two in turn; a model whose
    /// evidence is the state its prediction came from (user-kNN's
    /// neighbourhood) overrides it to compute that state once.
    ///
    /// # Errors
    ///
    /// The prediction's error when it fails, else the evidence's.
    fn predict_with_evidence(
        &self,
        ctx: &Ctx<'_>,
        user: UserId,
        item: ItemId,
    ) -> Result<(Prediction, ModelEvidence)> {
        let prediction = self.predict(ctx, user, item)?;
        let evidence = self.evidence(ctx, user, item)?;
        Ok((prediction, evidence))
    }

    /// [`Recommender::recommend`], each item paired with its evidence
    /// when the ranking already holds it. The default holds none, so
    /// every entry is `None` and callers gather evidence per item. An
    /// override returns the same items as `recommend`, and any evidence
    /// it supplies equals what [`Recommender::evidence`] returns for
    /// that pair.
    fn recommend_with_evidence(
        &self,
        ctx: &Ctx<'_>,
        user: UserId,
        n: usize,
    ) -> Vec<(Scored, Option<ModelEvidence>)> {
        self.recommend(ctx, user, n)
            .into_iter()
            .map(|scored| (scored, None))
            .collect()
    }

    /// Ranks the top `n` items the user has not yet rated. Items for which
    /// no prediction is possible are skipped. Ties break toward lower item
    /// ids so output is deterministic.
    fn recommend(&self, ctx: &Ctx<'_>, user: UserId, n: usize) -> Vec<Scored> {
        // Phase attribution for the serving profiler: the candidate
        // scan (one `predict` per unrated item; models with a
        // whole-request path, like user-kNN's scan engine, override
        // this) and the top-k sort. No-ops outside an active route
        // (`exrec_obs::profile`).
        let scan = exrec_obs::profile::phase("scan");
        let mut scored: Vec<Scored> = ctx
            .catalog
            .ids()
            .filter(|&i| ctx.ratings.rating(user, i).is_none())
            .filter_map(|i| {
                self.predict(ctx, user, i).ok().map(|prediction| Scored {
                    item: i,
                    prediction,
                })
            })
            .collect();
        drop(scan);
        let _rank = exrec_obs::profile::phase("rank");
        scored.sort_by(|a, b| {
            b.prediction
                .score
                .partial_cmp(&a.prediction.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.item.cmp(&b.item))
        });
        scored.truncate(n);
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exrec_types::{AttributeSet, Confidence, DomainSchema, Error, RatingScale};

    /// A recommender that scores items by id, for trait-default testing.
    struct ByIdRecommender;

    impl Recommender for ByIdRecommender {
        fn name(&self) -> &'static str {
            "by-id"
        }
        fn predict(&self, ctx: &Ctx<'_>, _user: UserId, item: ItemId) -> Result<Prediction> {
            if item.raw() == 2 {
                return Err(Error::NoPrediction {
                    user: UserId(0),
                    item,
                    reason: "test skip",
                });
            }
            let max = ctx.catalog.len() as f64;
            Ok(Prediction::new(
                5.0 - item.raw() as f64 * 4.0 / max,
                Confidence::CERTAIN,
            ))
        }
        fn evidence(&self, _ctx: &Ctx<'_>, _user: UserId, _item: ItemId) -> Result<ModelEvidence> {
            Ok(ModelEvidence::Popularity {
                mean: 3.0,
                count: 1,
            })
        }
    }

    fn fixtures() -> (RatingsMatrix, Catalog) {
        let schema = DomainSchema::new("d", vec![]).unwrap();
        let mut catalog = Catalog::new(schema);
        for k in 0..5 {
            catalog
                .add(&format!("item-{k}"), AttributeSet::new(), vec![])
                .unwrap();
        }
        let mut ratings = RatingsMatrix::new(2, 5, RatingScale::FIVE_STAR);
        ratings.rate(UserId(0), ItemId(0), 4.0).unwrap();
        (ratings, catalog)
    }

    #[test]
    fn recommend_excludes_rated_and_failed() {
        let (ratings, catalog) = fixtures();
        let ctx = Ctx::new(&ratings, &catalog);
        let recs = ByIdRecommender.recommend(&ctx, UserId(0), 10);
        let ids: Vec<u32> = recs.iter().map(|s| s.item.raw()).collect();
        assert!(!ids.contains(&0), "rated item must be excluded");
        assert!(!ids.contains(&2), "unpredictable item must be skipped");
        assert_eq!(ids, vec![1, 3, 4], "sorted by descending score");
    }

    #[test]
    fn recommend_truncates() {
        let (ratings, catalog) = fixtures();
        let ctx = Ctx::new(&ratings, &catalog);
        assert_eq!(ByIdRecommender.recommend(&ctx, UserId(1), 2).len(), 2);
    }

    #[test]
    fn evidence_defaults_chain_predict_and_evidence() {
        let (ratings, catalog) = fixtures();
        let ctx = Ctx::new(&ratings, &catalog);
        let (p, e) = ByIdRecommender
            .predict_with_evidence(&ctx, UserId(1), ItemId(1))
            .unwrap();
        assert_eq!(
            p,
            ByIdRecommender.predict(&ctx, UserId(1), ItemId(1)).unwrap()
        );
        assert_eq!(e.kind(), "popularity");
        assert!(ByIdRecommender
            .predict_with_evidence(&ctx, UserId(1), ItemId(2))
            .is_err());
        let ranked = ByIdRecommender.recommend_with_evidence(&ctx, UserId(0), 10);
        let plain = ByIdRecommender.recommend(&ctx, UserId(0), 10);
        assert_eq!(ranked.len(), plain.len());
        for ((scored, evidence), want) in ranked.iter().zip(&plain) {
            assert_eq!(scored, want);
            assert!(evidence.is_none(), "the default precomputes no evidence");
        }
    }

    #[test]
    fn evidence_kinds() {
        assert_eq!(
            ModelEvidence::Popularity {
                mean: 1.0,
                count: 2
            }
            .kind(),
            "popularity"
        );
        assert_eq!(
            ModelEvidence::UserNeighbors { neighbors: vec![] }.kind(),
            "user-neighbors"
        );
    }
}
