//! The [`Explainer`]: recommender + interface → explained recommendations.
//!
//! This is the survey's pipeline made concrete: any [`Recommender`] can be
//! paired with any [`InterfaceId`] whose evidence needs it satisfies,
//! because explanation content is generated from typed evidence rather
//! than from the algorithm's internals.

use std::time::Instant;

use crate::explanation::Explanation;
use crate::interfaces::{ExplainInput, InterfaceId};
use exrec_algo::batch::BatchPool;
use exrec_algo::{Ctx, ModelEvidence, Recommender, Scored};
use exrec_obs::Telemetry;
use exrec_types::{Error, ItemId, Prediction, Result, UserId};

/// Pairs a recommender with an explanation interface.
///
/// ```
/// use exrec_algo::baseline::Popularity;
/// use exrec_algo::{Ctx, Recommender};
/// use exrec_core::engine::Explainer;
/// use exrec_core::interfaces::InterfaceId;
/// use exrec_data::synth::{movies, WorldConfig};
///
/// let world = movies::generate(&WorldConfig::default());
/// let ctx = Ctx::new(&world.ratings, &world.catalog);
/// let model = Popularity::default();
/// let explainer = Explainer::new(&model, InterfaceId::MovieAverage);
/// let user = world.ratings.users().next().unwrap();
/// let explained = explainer.recommend_explained(&ctx, user, 3);
/// assert_eq!(explained.len(), 3);
/// assert_eq!(explained[0].1.interface, "item_average");
/// ```
pub struct Explainer<'r> {
    recommender: &'r (dyn Recommender + Sync),
    interface: InterfaceId,
    telemetry: Option<Telemetry>,
}

impl<'r> Explainer<'r> {
    /// Builds an explainer.
    ///
    /// The recommender must be `Sync` so the batch path
    /// ([`Explainer::recommend_explained_batch`]) can share it across
    /// worker threads; every model in `exrec-algo` is.
    pub fn new(recommender: &'r (dyn Recommender + Sync), interface: InterfaceId) -> Self {
        Self {
            recommender,
            interface,
            telemetry: None,
        }
    }

    /// Attaches a telemetry handle. The explainer then records, per
    /// call: evidence-gathering latency (`explain.evidence_ns`, for
    /// each model call that produces evidence), which
    /// interface fired (`explain.fired.<key>`), and how often generation
    /// aborted for lack of evidence (`explain.abort.missing_evidence`).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// The active interface.
    pub fn interface(&self) -> InterfaceId {
        self.interface
    }

    /// Swaps the interface (e.g. between study conditions).
    pub fn set_interface(&mut self, interface: InterfaceId) {
        self.interface = interface;
    }

    /// Runs one evidence-producing model call under the `evidence`
    /// profiler phase, recording its duration in the
    /// `explain.evidence_ns` histogram when telemetry is attached.
    fn timed_evidence<T>(&self, call: impl FnOnce() -> T) -> T {
        let _phase = exrec_obs::profile::phase("evidence");
        let started = Instant::now();
        let out = call();
        if let Some(t) = &self.telemetry {
            t.metrics()
                .histogram("explain.evidence_ns")
                .record(started.elapsed());
        }
        out
    }

    /// Runs the interface on gathered evidence, recording fire/abort
    /// counts when telemetry is attached.
    fn generate(&self, input: &ExplainInput<'_>) -> Result<Explanation> {
        let _phase = exrec_obs::profile::phase("generate");
        let result = self.interface.generate(input);
        if let Some(t) = &self.telemetry {
            match &result {
                Ok(_) => t
                    .metrics()
                    .counter(&format!("explain.fired.{}", self.interface.key()))
                    .incr(),
                Err(Error::MissingEvidence { .. }) => {
                    t.metrics().counter("explain.abort.missing_evidence").incr();
                }
                Err(_) => {}
            }
        }
        result
    }

    /// Predicts and explains one `(user, item)` pair.
    ///
    /// # Errors
    ///
    /// Propagates prediction errors and
    /// [`exrec_types::Error::MissingEvidence`] when the interface cannot
    /// run on this recommender's evidence.
    pub fn explain(
        &self,
        ctx: &Ctx<'_>,
        user: UserId,
        item: ItemId,
    ) -> Result<(Prediction, Explanation)> {
        self.explain_with_evidence(ctx, user, item)
            .map(|(prediction, explanation, _)| (prediction, explanation))
    }

    /// Top-n recommendations, each with its explanation. Items whose
    /// explanation cannot be generated are skipped (a recommendation the
    /// system cannot justify is withheld — the survey's transparency aim
    /// taken seriously). Evidence comes from the ranking itself where
    /// the model supplies it ([`Recommender::recommend_with_evidence`]);
    /// only the other items make a separate evidence call.
    pub fn recommend_explained(
        &self,
        ctx: &Ctx<'_>,
        user: UserId,
        n: usize,
    ) -> Vec<(Scored, Explanation)> {
        let _span = self
            .telemetry
            .as_ref()
            .map(|t| exrec_obs::span!(t, "recommend_explained", interface = self.interface.key()));
        self.recommender
            .recommend_with_evidence(ctx, user, n * 2)
            .into_iter()
            .filter_map(|(scored, evidence)| {
                let evidence = match evidence {
                    Some(evidence) => evidence,
                    None => self
                        .timed_evidence(|| self.recommender.evidence(ctx, user, scored.item))
                        .ok()?,
                };
                let input = ExplainInput {
                    ctx,
                    user,
                    item: scored.item,
                    prediction: scored.prediction,
                    evidence: &evidence,
                };
                let explanation = self.generate(&input).ok()?;
                Some((scored, explanation))
            })
            .take(n)
            .collect()
    }

    /// [`Explainer::explain`], additionally returning the gathered
    /// [`ModelEvidence`] — the hook the quality probes are built on:
    /// callers can ablate the cited evidence
    /// ([`crate::quality::ablation_fidelity`]) or measure how much of it
    /// the explanation surfaces ([`crate::quality::evidence_coverage`]).
    /// The prediction and its evidence come from one
    /// [`Recommender::predict_with_evidence`] call.
    ///
    /// # Errors
    ///
    /// Same contract as [`Explainer::explain`].
    pub fn explain_with_evidence(
        &self,
        ctx: &Ctx<'_>,
        user: UserId,
        item: ItemId,
    ) -> Result<(Prediction, Explanation, ModelEvidence)> {
        let (prediction, evidence) =
            self.timed_evidence(|| self.recommender.predict_with_evidence(ctx, user, item))?;
        let input = ExplainInput {
            ctx,
            user,
            item,
            prediction,
            evidence: &evidence,
        };
        let explanation = self.generate(&input)?;
        Ok((prediction, explanation, evidence))
    }

    /// Explains one pair and measures it with a quality probe: fidelity
    /// of the cited evidence under ablation, evidence coverage of the
    /// rendered fragments, and provenance depth. The ablation baseline
    /// is the user's observed mean rating (the model's no-evidence
    /// fallback), the normalizer the rating scale's span.
    ///
    /// # Errors
    ///
    /// Same contract as [`Explainer::explain`].
    pub fn explain_probed(
        &self,
        ctx: &Ctx<'_>,
        user: UserId,
        item: ItemId,
    ) -> Result<(Prediction, Explanation, crate::quality::QualityProbe)> {
        let (prediction, explanation, evidence) = self.explain_with_evidence(ctx, user, item)?;
        let baseline = ctx
            .ratings
            .user_mean(user)
            .unwrap_or_else(|| ctx.ratings.global_mean());
        let span = ctx.ratings.scale().span();
        let probe = crate::quality::QualityProbe::measure(&explanation, &evidence, baseline, span);
        Ok((prediction, explanation, probe))
    }

    /// [`Explainer::recommend_explained`] for a batch of users, fanned
    /// out over `pool`'s workers, in input order. The per-user output is
    /// identical to the sequential call — workers only decide
    /// scheduling, never content.
    pub fn recommend_explained_batch(
        &self,
        ctx: &Ctx<'_>,
        pool: &BatchPool,
        users: &[UserId],
        n: usize,
    ) -> Vec<Vec<(Scored, Explanation)>> {
        pool.run("recommend_explained", users, |_, &user| {
            self.recommend_explained(ctx, user, n)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exrec_algo::baseline::Popularity;
    use exrec_algo::UserKnn;
    use exrec_data::synth::{movies, WorldConfig};
    use exrec_data::World;

    fn world() -> World {
        movies::generate(&WorldConfig {
            n_users: 40,
            n_items: 40,
            density: 0.3,
            ..WorldConfig::default()
        })
    }

    #[test]
    fn knn_plus_histogram_explains() {
        let w = world();
        let ctx = Ctx::new(&w.ratings, &w.catalog);
        let knn = UserKnn::default();
        let explainer = Explainer::new(&knn, InterfaceId::ClusteredHistogram);
        let user = w
            .ratings
            .users()
            .find(|&u| w.ratings.user_ratings(u).len() >= 5)
            .unwrap();
        let recs = explainer.recommend_explained(&ctx, user, 3);
        assert!(!recs.is_empty());
        for (scored, expl) in &recs {
            assert!(w.ratings.rating(user, scored.item).is_none());
            assert_eq!(expl.interface, "clustered_histogram");
            assert!(expl.has_visual_content());
        }
    }

    #[test]
    fn mismatched_interface_errors_per_item() {
        let w = world();
        let ctx = Ctx::new(&w.ratings, &w.catalog);
        let pop = Popularity::default();
        // Popularity evidence cannot feed a neighbour histogram.
        let explainer = Explainer::new(&pop, InterfaceId::Histogram);
        let user = w.ratings.users().next().unwrap();
        let item = w.catalog.ids().next().unwrap();
        assert!(explainer.explain(&ctx, user, item).is_err());
        // …and recommend_explained silently skips, yielding nothing.
        assert!(explainer.recommend_explained(&ctx, user, 3).is_empty());
    }

    #[test]
    fn interface_swap() {
        let w = world();
        let ctx = Ctx::new(&w.ratings, &w.catalog);
        let pop = Popularity::default();
        let mut explainer = Explainer::new(&pop, InterfaceId::MovieAverage);
        let user = w.ratings.users().next().unwrap();
        let item = w.catalog.ids().next().unwrap();
        let (_, a) = explainer.explain(&ctx, user, item).unwrap();
        assert_eq!(a.interface, "item_average");
        explainer.set_interface(InterfaceId::WonAwards);
        let (_, b) = explainer.explain(&ctx, user, item).unwrap();
        assert_eq!(b.interface, "won_awards");
    }

    #[test]
    fn batch_path_matches_sequential() {
        let w = world();
        let ctx = Ctx::new(&w.ratings, &w.catalog);
        let knn = UserKnn::default();
        let explainer = Explainer::new(&knn, InterfaceId::ClusteredHistogram);
        let users: Vec<_> = w.ratings.users().take(8).collect();

        for threads in [1, 4] {
            let pool = BatchPool::new(threads);
            let explained = explainer.recommend_explained_batch(&ctx, &pool, &users, 3);
            for (per_user, &u) in explained.iter().zip(&users) {
                let sequential = explainer.recommend_explained(&ctx, u, 3);
                assert_eq!(per_user.len(), sequential.len());
                for ((bs, _), (ss, _)) in per_user.iter().zip(&sequential) {
                    assert_eq!(bs, ss);
                }
            }
        }
    }

    #[test]
    fn telemetry_counts_fires_and_aborts() {
        let w = world();
        let ctx = Ctx::new(&w.ratings, &w.catalog);
        let pop = Popularity::default();
        let obs = Telemetry::default();
        let mut explainer =
            Explainer::new(&pop, InterfaceId::MovieAverage).with_telemetry(obs.clone());
        let user = w.ratings.users().next().unwrap();
        let item = w.catalog.ids().next().unwrap();

        explainer.explain(&ctx, user, item).unwrap();
        explainer.explain(&ctx, user, item).unwrap();
        // Histogram needs neighbour evidence popularity cannot provide.
        explainer.set_interface(InterfaceId::Histogram);
        assert!(explainer.explain(&ctx, user, item).is_err());

        let report = obs.report();
        assert_eq!(report.counters["explain.fired.item_average"], 2);
        assert_eq!(report.counters["explain.abort.missing_evidence"], 1);
        assert_eq!(report.histograms["explain.evidence_ns"].count, 3);
    }

    #[test]
    fn evidence_is_timed_without_a_span() {
        use exrec_obs::{CountingSubscriber, Subscriber};

        let w = world();
        let ctx = Ctx::new(&w.ratings, &w.catalog);
        let pop = Popularity::default();
        let collector = std::sync::Arc::new(CountingSubscriber::new());
        let obs = Telemetry::with_subscriber(
            std::sync::Arc::clone(&collector) as std::sync::Arc<dyn Subscriber>
        );
        let explainer = Explainer::new(&pop, InterfaceId::MovieAverage).with_telemetry(obs.clone());
        let user = w.ratings.users().next().unwrap();

        // The histogram records every evidence call; no span is opened.
        assert!(!explainer.recommend_explained(&ctx, user, 2).is_empty());
        assert!(obs.report().histograms["explain.evidence_ns"].count > 0);
        let names: Vec<String> = collector.events().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["recommend_explained"]);
    }
}
