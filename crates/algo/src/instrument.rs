//! Telemetry decorator for recommenders.
//!
//! [`InstrumentedRecommender`] wraps any [`Recommender`] and counts and
//! times every model call against a shared [`Telemetry`] registry,
//! under per-model metric names. `predict_with_evidence` counts as one
//! prediction and `recommend_with_evidence` as one ranking: each is one
//! call into the model, whatever it returns.
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `algo.predict.<model>` | counter | successful `predict` / `predict_with_evidence` calls |
//! | `algo.predict_err.<model>` | counter | failed `predict` / `predict_with_evidence` calls |
//! | `algo.predict_ns.<model>` | histogram | latency of both |
//! | `algo.evidence_ns.<model>` | histogram | `evidence` latency |
//! | `algo.recommend.<model>` | counter | `recommend` / `recommend_with_evidence` calls |
//! | `algo.recommend_ns.<model>` | histogram | latency of both |
//!
//! Handles are resolved once at construction, so the per-call overhead is
//! a timestamp and two relaxed atomic updates — safe to leave enabled in
//! the hot path.

use std::sync::Arc;
use std::time::Instant;

use exrec_obs::{Counter, Histogram, Telemetry};
use exrec_types::{ItemId, Prediction, Result, UserId};

use crate::recommender::{Ctx, ModelEvidence, Recommender, Scored};

/// A [`Recommender`] that reports per-model metrics on every call.
#[derive(Debug)]
pub struct InstrumentedRecommender<R> {
    inner: R,
    predictions: Counter,
    prediction_errors: Counter,
    predict_ns: Arc<Histogram>,
    evidence_ns: Arc<Histogram>,
    recommends: Counter,
    recommend_ns: Arc<Histogram>,
}

impl<R: Recommender> InstrumentedRecommender<R> {
    /// Wraps `inner`, registering its metric family on `telemetry`'s
    /// registry under the model's [`Recommender::name`].
    pub fn new(inner: R, telemetry: &Telemetry) -> Self {
        let name = inner.name();
        let metrics = telemetry.metrics();
        InstrumentedRecommender {
            predictions: metrics.counter(&format!("algo.predict.{name}")),
            prediction_errors: metrics.counter(&format!("algo.predict_err.{name}")),
            predict_ns: metrics.histogram(&format!("algo.predict_ns.{name}")),
            evidence_ns: metrics.histogram(&format!("algo.evidence_ns.{name}")),
            recommends: metrics.counter(&format!("algo.recommend.{name}")),
            recommend_ns: metrics.histogram(&format!("algo.recommend_ns.{name}")),
            inner,
        }
    }

    /// The wrapped model.
    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// Unwraps the model, dropping the instrumentation.
    pub fn into_inner(self) -> R {
        self.inner
    }

    /// Times one prediction-shaped call and counts its outcome.
    fn count_prediction<T>(&self, call: impl FnOnce() -> Result<T>) -> Result<T> {
        let started = Instant::now();
        let result = call();
        self.predict_ns.record(started.elapsed());
        match &result {
            Ok(_) => self.predictions.incr(),
            Err(_) => self.prediction_errors.incr(),
        }
        result
    }

    /// Times and counts one ranking call.
    fn count_ranking<T>(&self, call: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let result = call();
        self.recommend_ns.record(started.elapsed());
        self.recommends.incr();
        result
    }
}

impl<R: Recommender> Recommender for InstrumentedRecommender<R> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn predict(&self, ctx: &Ctx<'_>, user: UserId, item: ItemId) -> Result<Prediction> {
        self.count_prediction(|| self.inner.predict(ctx, user, item))
    }

    fn predict_with_evidence(
        &self,
        ctx: &Ctx<'_>,
        user: UserId,
        item: ItemId,
    ) -> Result<(Prediction, ModelEvidence)> {
        self.count_prediction(|| self.inner.predict_with_evidence(ctx, user, item))
    }

    fn evidence(&self, ctx: &Ctx<'_>, user: UserId, item: ItemId) -> Result<ModelEvidence> {
        let started = Instant::now();
        let result = self.inner.evidence(ctx, user, item);
        self.evidence_ns.record(started.elapsed());
        result
    }

    fn recommend(&self, ctx: &Ctx<'_>, user: UserId, n: usize) -> Vec<Scored> {
        // Delegate to the inner model so specialised rankings (e.g.
        // TF-IDF's cosine ordering) are preserved; its per-item predict
        // calls bypass this wrapper, so the ranking itself is observed
        // as one `recommend` sample rather than n `predict` samples.
        self.count_ranking(|| self.inner.recommend(ctx, user, n))
    }

    fn recommend_with_evidence(
        &self,
        ctx: &Ctx<'_>,
        user: UserId,
        n: usize,
    ) -> Vec<(Scored, Option<ModelEvidence>)> {
        self.count_ranking(|| self.inner.recommend_with_evidence(ctx, user, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exrec_data::{Catalog, RatingsMatrix};
    use exrec_types::{AttributeDef, AttributeSet, DomainSchema, Error, RatingScale};

    fn fixture() -> (RatingsMatrix, Catalog) {
        let schema =
            DomainSchema::new("d", vec![AttributeDef::categorical("genre", "Genre")]).unwrap();
        let mut catalog = Catalog::new(schema);
        for k in 0..4 {
            catalog
                .add(
                    &format!("item {k}"),
                    AttributeSet::new().with("genre", "g"),
                    vec![],
                )
                .unwrap();
        }
        let mut ratings = RatingsMatrix::new(2, 4, RatingScale::FIVE_STAR);
        ratings.rate(UserId(0), ItemId(0), 4.0).unwrap();
        (ratings, catalog)
    }

    /// Succeeds on even item ids, fails on odd ones.
    struct Flaky;

    impl Recommender for Flaky {
        fn name(&self) -> &'static str {
            "flaky"
        }
        fn predict(&self, _ctx: &Ctx<'_>, user: UserId, item: ItemId) -> Result<Prediction> {
            if item.0.is_multiple_of(2) {
                Ok(Prediction::new(3.0, exrec_types::Confidence::new(0.5)))
            } else {
                Err(Error::NoPrediction {
                    user,
                    item,
                    reason: "odd item",
                })
            }
        }
        fn evidence(&self, _ctx: &Ctx<'_>, _user: UserId, _item: ItemId) -> Result<ModelEvidence> {
            Ok(ModelEvidence::Popularity {
                mean: 3.0,
                count: 1,
            })
        }
    }

    #[test]
    fn counts_successes_errors_and_latency() {
        let (ratings, catalog) = fixture();
        let ctx = Ctx::new(&ratings, &catalog);
        let obs = Telemetry::default();
        let model = InstrumentedRecommender::new(Flaky, &obs);

        for item in 0..4 {
            let _ = model.predict(&ctx, UserId(0), ItemId(item));
        }
        let _ = model.evidence(&ctx, UserId(0), ItemId(0));
        let recs = model.recommend(&ctx, UserId(0), 10);

        let report = obs.report();
        assert_eq!(report.counters["algo.predict.flaky"], 2);
        assert_eq!(report.counters["algo.predict_err.flaky"], 2);
        assert_eq!(report.counters["algo.recommend.flaky"], 1);
        assert_eq!(report.histograms["algo.predict_ns.flaky"].count, 4);
        assert_eq!(report.histograms["algo.evidence_ns.flaky"].count, 1);
        assert_eq!(report.histograms["algo.recommend_ns.flaky"].count, 1);
        // Item 0 is rated, items 2 is the only unrated even id.
        assert_eq!(recs.len(), 1);
        assert_eq!(model.name(), "flaky");
    }

    #[test]
    fn evidence_carrying_calls_count_once() {
        let (ratings, catalog) = fixture();
        let ctx = Ctx::new(&ratings, &catalog);
        let obs = Telemetry::default();
        let model = InstrumentedRecommender::new(Flaky, &obs);

        assert!(model
            .predict_with_evidence(&ctx, UserId(0), ItemId(2))
            .is_ok());
        assert!(model
            .predict_with_evidence(&ctx, UserId(0), ItemId(3))
            .is_err());
        let ranked = model.recommend_with_evidence(&ctx, UserId(0), 10);
        assert_eq!(ranked.len(), 1);

        // One call each, under the existing names; the inner default's
        // predict + evidence pair is not counted twice.
        let report = obs.report();
        assert_eq!(report.counters["algo.predict.flaky"], 1);
        assert_eq!(report.counters["algo.predict_err.flaky"], 1);
        assert_eq!(report.histograms["algo.predict_ns.flaky"].count, 2);
        assert_eq!(report.counters["algo.recommend.flaky"], 1);
        assert_eq!(report.histograms["algo.recommend_ns.flaky"].count, 1);
        assert_eq!(report.histograms["algo.evidence_ns.flaky"].count, 0);
    }
}
