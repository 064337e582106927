//! User-based k-nearest-neighbour collaborative filtering.
//!
//! The classic Resnick/GroupLens predictor behind "people like you
//! liked…" explanations and Herlocker et al.'s neighbour-ratings
//! histogram (the best-performing interface in the survey's Section 3.4).
//!
//! Predictions are mean-centred:
//! `p(u,i) = mean(u) + Σ sim(u,v)·(r(v,i) − mean(v)) / Σ |sim(u,v)|`
//! over the top-k most similar users who rated `i`. Confidence grows with
//! the number of contributing neighbours and their agreement.

use std::sync::Arc;

use crate::kernel::{scan_similarities, ScanEngine, ScanMode, SimParams, TILE_USERS};
use crate::neighbors::{top_k_by, top_k_stream};
use crate::recommender::{Ctx, ModelEvidence, NeighborContribution, Recommender, Scored};
use crate::similarity::{self, Similarity};
use exrec_data::RatingsMatrix;
use exrec_types::{Confidence, Error, ItemId, Prediction, Result, UserId};

/// Users sorted per head of the inverted gather
/// ([`UserKnn::gather_ranked`]). Heads are cut with
/// `select_nth_unstable_by`, so a walk that fills every item early never
/// sorts the whole eligible set.
const GATHER_HEAD: usize = 4096;

/// Configuration for [`UserKnn`].
#[derive(Debug, Clone, PartialEq)]
pub struct UserKnnConfig {
    /// Neighbourhood size.
    pub k: usize,
    /// Similarity measure over co-ratings.
    pub similarity: Similarity,
    /// Minimum co-rated items for a neighbour to count at all.
    pub min_overlap: usize,
    /// Significance-weighting threshold (0 disables).
    pub significance: usize,
    /// Drop neighbours with similarity at or below this value.
    pub min_similarity: f64,
}

impl Default for UserKnnConfig {
    fn default() -> Self {
        Self {
            k: 20,
            similarity: Similarity::Pearson,
            min_overlap: 2,
            significance: 20,
            min_similarity: 0.0,
        }
    }
}

/// User-based kNN recommender. Stateless by default: similarities are
/// computed against the live ratings matrix on every call, so mid-session
/// re-rating (survey Section 5.3) is observed immediately.
///
/// For serving, attach a shared [`ScanEngine`] with
/// [`UserKnn::with_engine`]: similarity scans then run through the
/// tiled kernel ([`ScanMode::Exact`], bit-identical to the brute
/// path) and optionally the cluster-pruned candidate index
/// ([`ScanMode::Pruned`], recall ≥ 0.99 with automatic exact fallback).
/// The kernel reads the live matrix too, so mid-session re-rating is
/// observed on the next call. A ranking then costs
/// one kernel scan: an inverted gather builds every candidate item's
/// neighbourhood from it, and [`Recommender::recommend_with_evidence`]
/// hands each neighbourhood out as its item's evidence. See
/// `docs/kernels.md`.
#[derive(Debug, Clone, Default)]
pub struct UserKnn {
    config: UserKnnConfig,
    scan: Option<ScanHandle>,
}

/// An attached scan engine plus the mode it should run in.
#[derive(Debug, Clone)]
struct ScanHandle {
    engine: Arc<ScanEngine>,
    mode: ScanMode,
}

impl UserKnn {
    /// Builds a recommender with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for `k == 0`.
    pub fn new(config: UserKnnConfig) -> Result<Self> {
        if config.k == 0 {
            return Err(Error::InvalidConfig {
                parameter: "k",
                constraint: "k >= 1".to_owned(),
            });
        }
        Ok(Self { config, scan: None })
    }

    /// The configuration in use.
    pub fn config(&self) -> &UserKnnConfig {
        &self.config
    }

    /// Attaches a shared scan engine and picks the scan mode. Clones of
    /// the same `Arc` (e.g. per batch worker) share the candidate
    /// index.
    pub fn with_engine(mut self, engine: Arc<ScanEngine>, mode: ScanMode) -> Self {
        self.scan = Some(ScanHandle { engine, mode });
        self
    }

    /// The attached scan engine and mode, if any.
    pub fn engine(&self) -> Option<(&Arc<ScanEngine>, ScanMode)> {
        self.scan.as_ref().map(|h| (&h.engine, h.mode))
    }

    /// Stable name of the scan path this model resolves neighbours
    /// through: `"brute"` without an engine, else the engine mode.
    pub fn scan_mode_name(&self) -> &'static str {
        match &self.scan {
            None => "brute",
            Some(h) => h.mode.name(),
        }
    }

    /// The kernel-facing slice of the configuration.
    fn sim_params(&self) -> SimParams {
        SimParams {
            similarity: self.config.similarity,
            min_overlap: self.config.min_overlap,
            significance: self.config.significance,
        }
    }

    fn pair_similarity(&self, ctx: &Ctx<'_>, a: UserId, b: UserId) -> f64 {
        let co = ctx.ratings.co_rated(a, b);
        if co.len() < self.config.min_overlap {
            return 0.0;
        }
        let pairs: Vec<(f64, f64)> = co.iter().map(|&(_, x, y)| (x, y)).collect();
        let raw = match self.config.similarity {
            Similarity::Pearson => similarity::pearson(&pairs),
            Similarity::Cosine => similarity::cosine(&pairs),
            Similarity::AdjustedCosine => {
                // For user-user, adjusted == centring on each user's mean.
                let ma = ctx.ratings.user_mean(a).unwrap_or_default();
                let mb = ctx.ratings.user_mean(b).unwrap_or_default();
                let centred: Vec<(f64, f64)> =
                    pairs.iter().map(|&(x, y)| (x - ma, y - mb)).collect();
                similarity::adjusted_cosine(&centred)
            }
            Similarity::Jaccard => similarity::jaccard(
                co.len(),
                ctx.ratings.user_ratings(a).len(),
                ctx.ratings.user_ratings(b).len(),
            ),
        };
        similarity::significance_weight(raw, co.len(), self.config.significance)
    }

    /// The top-k neighbours of `user` *who rated `item`*, strongest first.
    ///
    /// With a scan engine attached this routes through the tiled kernel
    /// (restricted to the item's raters — the only users whose
    /// similarity can matter here), intersected with the pruned
    /// candidate set in [`ScanMode::Pruned`]; otherwise it runs the
    /// seed's per-pair path. Exact mode is bit-identical to the brute
    /// path.
    pub fn neighbors(
        &self,
        ctx: &Ctx<'_>,
        user: UserId,
        item: ItemId,
    ) -> Vec<NeighborContribution> {
        match &self.scan {
            Some(handle) => self.neighbors_scanned(ctx, user, item, handle),
            None => self.neighbors_brute(ctx, user, item),
        }
    }

    fn neighbors_brute(
        &self,
        ctx: &Ctx<'_>,
        user: UserId,
        item: ItemId,
    ) -> Vec<NeighborContribution> {
        // Profiler phase per candidate item, not per pair: a guard on
        // every similarity probe would cost more than the probe.
        let _phase = exrec_obs::profile::phase("similarity");
        let raters = ctx.ratings.item_ratings(item);
        let candidates: Vec<NeighborContribution> = raters
            .iter()
            .filter(|&&(v, _)| v != user)
            .filter_map(|&(v, rating)| {
                let s = self.pair_similarity(ctx, user, v);
                (s > self.config.min_similarity).then_some(NeighborContribution {
                    user: v,
                    similarity: s,
                    rating,
                })
            })
            .collect();
        top_k_by(candidates, self.config.k, |n| n.similarity)
    }

    /// Kernel-backed single-item neighbourhood: scan only the item's
    /// raters (exact) or their intersection with the pruned candidate
    /// set, then rank with the same `> min_similarity` filter and
    /// stable top-k the brute path applies.
    fn neighbors_scanned(
        &self,
        ctx: &Ctx<'_>,
        user: UserId,
        item: ItemId,
        handle: &ScanHandle,
    ) -> Vec<NeighborContribution> {
        let raters: Vec<u32> = ctx
            .ratings
            .item_ratings(item)
            .iter()
            .map(|&(v, _)| v.raw())
            .collect();
        if raters.is_empty() {
            return Vec::new();
        }
        let sims = self.scan_sims(ctx.ratings, user, handle, Some(raters));
        let _p = exrec_obs::profile::phase("gather");
        self.gather_neighbors(ctx.ratings, &sims, user, item)
    }

    /// One kernel scan of `user` against the scan list for this mode
    /// (see [`UserKnn::scan_list_for`]), recorded on the engine's
    /// counters. Returns the dense sims table (`0.0` off the list).
    fn scan_sims(
        &self,
        ratings: &RatingsMatrix,
        user: UserId,
        handle: &ScanHandle,
        raters: Option<Vec<u32>>,
    ) -> Vec<f64> {
        let (scan_list, pruned, fell_back) = self.scan_list_for(ratings, user, handle, raters);
        let mut sims = Vec::new();
        let outcome = {
            let _p = exrec_obs::profile::phase("kernel");
            scan_similarities(
                ratings,
                &self.sim_params(),
                user,
                scan_list.as_deref(),
                TILE_USERS,
                &mut sims,
            )
        };
        let scanned = scan_list.map_or(ratings.n_users(), |list| list.len());
        handle.engine.record_scan(
            &outcome,
            pruned.then_some((scanned, ratings.n_users())),
            fell_back,
        );
        sims
    }

    /// The users one scan should score, per mode: `None` for every
    /// user, which the kernel walks in contiguous tiles. `raters`
    /// bounds the scan to one item's raters when given (single-item
    /// paths), the pruned candidate set intersects with it, and a
    /// candidate set under the fallback floor degrades to the exact
    /// list. Returns `(list, is_pruned, fell_back)`.
    fn scan_list_for(
        &self,
        ratings: &RatingsMatrix,
        user: UserId,
        handle: &ScanHandle,
        raters: Option<Vec<u32>>,
    ) -> (Option<Vec<u32>>, bool, bool) {
        match handle.mode {
            ScanMode::Exact => (raters, false, false),
            ScanMode::Pruned => {
                // Two complementary candidate sources (docs/kernels.md
                // §pruned-probing): cluster probes catch taste
                // neighbours, the overlap pass catches the
                // high-co-rating users whose significance weight makes
                // them dominate neighbourhoods.
                let candidates = {
                    let _p = exrec_obs::profile::phase("index");
                    let index = handle.engine.index(ratings);
                    let clustered = index.candidates(ratings, user.raw());
                    let budget = handle
                        .engine
                        .index_config()
                        .resolve_budget(ratings.n_users());
                    let by_overlap = crate::kernel::overlap_candidates(ratings, user, budget);
                    crate::kernel::union_sorted(&clustered, &by_overlap)
                };
                if candidates.len() < handle.engine.fallback_floor(self.config.k) {
                    return (raters, false, true);
                }
                let list = match raters {
                    None => candidates,
                    Some(r) => intersect_sorted(&r, &candidates),
                };
                (Some(list), true, false)
            }
        }
    }

    /// Ranks an item's raters from a dense similarity table, mirroring
    /// the brute path's filter/tie-break exactly: raters in ascending
    /// user order, keep `s > min_similarity`, stable top-k.
    fn gather_neighbors(
        &self,
        ratings: &RatingsMatrix,
        sims: &[f64],
        user: UserId,
        item: ItemId,
    ) -> Vec<NeighborContribution> {
        let contributions = ratings
            .item_ratings(item)
            .iter()
            .filter(|&&(v, _)| v != user)
            .filter_map(|&(v, rating)| {
                let s = sims[v.index()];
                (s > self.config.min_similarity).then_some(NeighborContribution {
                    user: v,
                    similarity: s,
                    rating,
                })
            });
        top_k_stream(contributions, self.config.k, |n| n.similarity)
    }

    /// The inverted gather: every candidate item's top-k neighbourhood
    /// from one walk over the request's sims table (docs/kernels.md,
    /// "Gathering neighbourhoods"). Users with `sim > min_similarity`
    /// are visited in (sim desc, id asc) order, sorted one head of
    /// [`GATHER_HEAD`] users at a time. Each visited user joins the list
    /// of every open item in their row; an item closes at `k` entries,
    /// and the walk stops once every item is closed. Each list then
    /// equals [`UserKnn::gather_neighbors`] on the same table, entry
    /// for entry, because both keep the first `k` raters in that order.
    /// Lists come back parallel to `items`.
    ///
    /// The walk reads each visited user's row anyway, so it also takes
    /// their mean rating there: the second return is a table whose
    /// entry `v` is `v`'s mean for every visited user (every user in a
    /// list), which makes each neighbour mean an `O(1)` lookup. It
    /// reuses the buffer of `sims`, which is spent once the walk order
    /// is drawn from it.
    fn gather_ranked(
        &self,
        ratings: &RatingsMatrix,
        sims: Vec<f64>,
        user: UserId,
        items: &[ItemId],
    ) -> (Vec<Vec<NeighborContribution>>, Vec<f64>) {
        let k = self.config.k;
        // `slot[item]`: the item's position in `lists` while it is open.
        let mut slot = vec![u32::MAX; ratings.n_items()];
        let mut lists = Vec::with_capacity(items.len());
        for (pos, &item) in items.iter().enumerate() {
            slot[item.index()] = pos as u32;
            lists.push(Vec::with_capacity(k.min(ratings.item_ratings(item).len())));
        }
        let mut open = items.len();
        let mut order: Vec<(f64, u32)> = sims
            .iter()
            .enumerate()
            .filter(|&(v, &s)| s > self.config.min_similarity && v != user.index())
            .map(|(v, &s)| (s, v as u32))
            .collect();
        let mut means = sims;
        // The id makes every key unique, so a head cut is exact.
        let better = |a: &(f64, u32), b: &(f64, u32)| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        };
        let mut start = 0;
        while open > 0 && start < order.len() {
            let rest = &mut order[start..];
            let len = rest.len().min(GATHER_HEAD);
            if len < rest.len() {
                rest.select_nth_unstable_by(len - 1, better);
            }
            let head = &mut rest[..len];
            head.sort_unstable_by(better);
            for &(similarity, v) in head.iter() {
                let row = ratings.user_ratings(UserId(v));
                // The running sum is `RatingsMatrix::user_mean`'s fold
                // (std's float `Sum` starts from -0.0 and adds in item
                // order), so the mean is bit-identical. Only users in a
                // list have their mean read, and their rows are not empty.
                let mut sum = -0.0;
                for &(i, rating) in row {
                    sum += rating;
                    let pos = slot[i.index()];
                    if pos == u32::MAX {
                        continue;
                    }
                    let list = &mut lists[pos as usize];
                    list.push(NeighborContribution {
                        user: UserId(v),
                        similarity,
                        rating,
                    });
                    if list.len() == k {
                        slot[i.index()] = u32::MAX;
                        open -= 1;
                    }
                }
                means[v as usize] = sum / row.len() as f64;
                if open == 0 {
                    break;
                }
            }
            start += len;
        }
        (lists, means)
    }

    /// Resnick's mean-centred prediction from a ranked neighbourhood:
    /// the arithmetic behind every prediction and ranking score.
    /// `neighbor_mean` resolves a neighbour's mean rating, from the live
    /// matrix or the gather's mean table (the two are bit-identical).
    fn prediction_from(
        &self,
        ctx: &Ctx<'_>,
        user: UserId,
        item: ItemId,
        user_mean: f64,
        neighbors: &[NeighborContribution],
        neighbor_mean: impl Fn(UserId) -> f64,
    ) -> Result<Prediction> {
        if neighbors.is_empty() {
            return Err(Error::NoPrediction {
                user,
                item,
                reason: "no similar users rated this item",
            });
        }
        let mut num = 0.0;
        let mut den = 0.0;
        for n in neighbors {
            num += n.similarity * (n.rating - neighbor_mean(n.user));
            den += n.similarity.abs();
        }
        if den <= 1e-12 {
            return Err(Error::NoPrediction {
                user,
                item,
                reason: "neighbour similarities cancel out",
            });
        }
        let score = ctx.ratings.scale().bound(user_mean + num / den);

        // Confidence: neighbourhood fill × rating agreement.
        let fill = neighbors.len() as f64 / self.config.k as f64;
        let mean_rating = neighbors.iter().map(|n| n.rating).sum::<f64>() / neighbors.len() as f64;
        let var = neighbors
            .iter()
            .map(|n| (n.rating - mean_rating).powi(2))
            .sum::<f64>()
            / neighbors.len() as f64;
        let span = ctx.ratings.scale().span();
        let agreement = 1.0 - (var.sqrt() / (span / 2.0)).min(1.0);
        let confidence = Confidence::new(fill.min(1.0) * (0.3 + 0.7 * agreement));

        Ok(Prediction::new(score, confidence))
    }

    /// Ranks the top `n` unrated items, each with the neighbourhood
    /// that scored it: the one path behind [`Recommender::recommend`]
    /// and [`Recommender::recommend_with_evidence`]. With a scan engine
    /// one kernel scan serves the whole request and
    /// [`UserKnn::gather_ranked`] builds every item's neighbourhood from
    /// it; without one, each item runs the per-pair path. Exact mode is
    /// bit-identical to the per-pair path.
    fn rank(
        &self,
        ctx: &Ctx<'_>,
        user: UserId,
        n: usize,
    ) -> Vec<(Scored, Vec<NeighborContribution>)> {
        let scan = exrec_obs::profile::phase("scan");
        // Out-of-range user: every per-item predict would fail its id
        // check, so nothing ranks.
        if user.index() >= ctx.ratings.n_users() {
            return Vec::new();
        }
        let items: Vec<ItemId> = ctx
            .catalog
            .ids()
            .filter(|&i| i.index() < ctx.ratings.n_items() && ctx.ratings.rating(user, i).is_none())
            .collect();
        let user_mean = user_mean(ctx, user);
        let global_mean = ctx.ratings.global_mean();
        let scored =
            |item: ItemId, neighbors: Vec<NeighborContribution>, mean: &dyn Fn(UserId) -> f64| {
                self.prediction_from(ctx, user, item, user_mean, &neighbors, mean)
                    .ok()
                    .map(|prediction| (Scored { item, prediction }, neighbors))
            };
        let mut ranked: Vec<(Scored, Vec<NeighborContribution>)> = match &self.scan {
            None => {
                let live_mean = |v: UserId| ctx.ratings.user_mean(v).unwrap_or(global_mean);
                items
                    .into_iter()
                    .filter_map(|i| scored(i, self.neighbors_brute(ctx, user, i), &live_mean))
                    .collect()
            }
            Some(handle) => {
                let sims = self.scan_sims(ctx.ratings, user, handle, None);
                let _p = exrec_obs::profile::phase("gather");
                let (lists, means) = self.gather_ranked(ctx.ratings, sims, user, &items);
                let gathered_mean = |v: UserId| means[v.index()];
                items
                    .into_iter()
                    .zip(lists)
                    .filter_map(|(i, neighbors)| scored(i, neighbors, &gathered_mean))
                    .collect()
            }
        };
        drop(scan);
        let _rank = exrec_obs::profile::phase("rank");
        ranked.sort_by(|(a, _), (b, _)| {
            b.prediction
                .score
                .partial_cmp(&a.prediction.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.item.cmp(&b.item))
        });
        ranked.truncate(n);
        ranked
    }

    fn check_ids(&self, ctx: &Ctx<'_>, user: UserId, item: ItemId) -> Result<()> {
        if user.index() >= ctx.ratings.n_users() {
            return Err(Error::UnknownUser { user });
        }
        if item.index() >= ctx.ratings.n_items() {
            return Err(Error::UnknownItem { item });
        }
        Ok(())
    }
}

/// The user's mean rating, or the global mean for an empty profile.
fn user_mean(ctx: &Ctx<'_>, user: UserId) -> f64 {
    ctx.ratings
        .user_mean(user)
        .unwrap_or_else(|| ctx.ratings.global_mean())
}

/// Intersection of two sorted, deduplicated id lists, ascending.
fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

impl Recommender for UserKnn {
    fn name(&self) -> &'static str {
        "user-knn"
    }

    fn recommend(&self, ctx: &Ctx<'_>, user: UserId, n: usize) -> Vec<Scored> {
        self.rank(ctx, user, n)
            .into_iter()
            .map(|(scored, _)| scored)
            .collect()
    }

    /// Every ranked item carries the neighbourhood that scored it, so
    /// explaining a ranking costs no second scan.
    fn recommend_with_evidence(
        &self,
        ctx: &Ctx<'_>,
        user: UserId,
        n: usize,
    ) -> Vec<(Scored, Option<ModelEvidence>)> {
        self.rank(ctx, user, n)
            .into_iter()
            .map(|(scored, neighbors)| (scored, Some(ModelEvidence::UserNeighbors { neighbors })))
            .collect()
    }

    fn predict(&self, ctx: &Ctx<'_>, user: UserId, item: ItemId) -> Result<Prediction> {
        self.predict_with_evidence(ctx, user, item)
            .map(|(prediction, _)| prediction)
    }

    /// One neighbourhood serves both the prediction and its evidence.
    fn predict_with_evidence(
        &self,
        ctx: &Ctx<'_>,
        user: UserId,
        item: ItemId,
    ) -> Result<(Prediction, ModelEvidence)> {
        self.check_ids(ctx, user, item)?;
        let neighbors = self.neighbors(ctx, user, item);
        let global_mean = ctx.ratings.global_mean();
        let live_mean = |v: UserId| ctx.ratings.user_mean(v).unwrap_or(global_mean);
        let prediction =
            self.prediction_from(ctx, user, item, user_mean(ctx, user), &neighbors, live_mean)?;
        Ok((prediction, ModelEvidence::UserNeighbors { neighbors }))
    }

    fn evidence(&self, ctx: &Ctx<'_>, user: UserId, item: ItemId) -> Result<ModelEvidence> {
        self.check_ids(ctx, user, item)?;
        let neighbors = self.neighbors(ctx, user, item);
        if neighbors.is_empty() {
            return Err(Error::NoPrediction {
                user,
                item,
                reason: "no similar users rated this item",
            });
        }
        Ok(ModelEvidence::UserNeighbors { neighbors })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exrec_data::synth::{movies, WorldConfig};
    use exrec_data::{Catalog, RatingsMatrix};
    use exrec_types::{DomainSchema, RatingScale};

    fn ctx_fixtures() -> (RatingsMatrix, Catalog) {
        // Users 0 and 1 agree perfectly; user 2 is their opposite.
        let schema = DomainSchema::new("d", vec![]).unwrap();
        let mut catalog = Catalog::new(schema);
        for k in 0..6 {
            catalog
                .add(&format!("m{k}"), Default::default(), vec![])
                .unwrap();
        }
        let mut m = RatingsMatrix::new(3, 6, RatingScale::FIVE_STAR);
        let grid = [
            (
                0u32,
                [Some(5.0), Some(4.0), Some(1.0), Some(2.0), None, Some(5.0)],
            ),
            (
                1u32,
                [Some(5.0), Some(4.0), Some(1.0), Some(2.0), Some(5.0), None],
            ),
            (
                2u32,
                [Some(1.0), Some(2.0), Some(5.0), Some(4.0), Some(1.0), None],
            ),
        ];
        for (u, row) in grid {
            for (i, v) in row.into_iter().enumerate() {
                if let Some(v) = v {
                    m.rate(UserId(u), ItemId(i as u32), v).unwrap();
                }
            }
        }
        (m, catalog)
    }

    fn knn() -> UserKnn {
        UserKnn::new(UserKnnConfig {
            k: 2,
            min_overlap: 2,
            significance: 0,
            ..UserKnnConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn follows_agreeing_neighbor() {
        let (m, c) = ctx_fixtures();
        let ctx = Ctx::new(&m, &c);
        // User 0 hasn't rated item 4; like-minded user 1 rated it 5,
        // opposite user 2 rated it 1. Prediction should be high.
        let p = knn().predict(&ctx, UserId(0), ItemId(4)).unwrap();
        assert!(p.score > 3.5, "expected high prediction, got {}", p.score);
    }

    #[test]
    fn evidence_lists_neighbors_sorted() {
        let (m, c) = ctx_fixtures();
        let ctx = Ctx::new(&m, &c);
        let ev = knn().evidence(&ctx, UserId(0), ItemId(4)).unwrap();
        match ev {
            ModelEvidence::UserNeighbors { neighbors } => {
                assert!(!neighbors.is_empty());
                assert!(neighbors
                    .windows(2)
                    .all(|w| w[0].similarity >= w[1].similarity));
                assert_eq!(neighbors[0].user, UserId(1));
            }
            other => panic!("wrong evidence kind: {}", other.kind()),
        }
    }

    #[test]
    fn no_prediction_without_raters() {
        let (mut m, c) = ctx_fixtures();
        m.ensure_items(7);
        let err = {
            let ctx = Ctx::new(&m, &c);
            knn().predict(&ctx, UserId(0), ItemId(6)).unwrap_err()
        };
        assert!(matches!(err, Error::NoPrediction { .. }));
    }

    #[test]
    fn rejects_out_of_range() {
        let (m, c) = ctx_fixtures();
        let ctx = Ctx::new(&m, &c);
        assert!(matches!(
            knn().predict(&ctx, UserId(99), ItemId(0)),
            Err(Error::UnknownUser { .. })
        ));
    }

    #[test]
    fn zero_k_is_invalid() {
        assert!(UserKnn::new(UserKnnConfig {
            k: 0,
            ..UserKnnConfig::default()
        })
        .is_err());
    }

    #[test]
    fn beats_global_mean_on_synthetic_world() {
        // Sanity: on a structured world, user-kNN MAE < always-global-mean MAE.
        let world = movies::generate(&WorldConfig {
            n_users: 60,
            n_items: 50,
            density: 0.35,
            ..WorldConfig::default()
        });
        let split = exrec_data::split::holdout(&world.ratings, 0.2, 9);
        let ctx = Ctx::new(&split.train, &world.catalog);
        let model = UserKnn::default();
        let gm = split.train.global_mean();
        let (mut knn_err, mut gm_err, mut n) = (0.0, 0.0, 0);
        for &(u, i, truth) in &split.test {
            if let Ok(p) = model.predict(&ctx, u, i) {
                knn_err += (p.score - truth).abs();
                gm_err += (gm - truth).abs();
                n += 1;
            }
        }
        assert!(n > 20, "need enough predictable pairs, got {n}");
        let (knn_mae, gm_mae) = (knn_err / n as f64, gm_err / n as f64);
        assert!(
            knn_mae < gm_mae,
            "kNN MAE {knn_mae:.3} should beat global-mean MAE {gm_mae:.3}"
        );
    }

    #[test]
    fn prediction_observes_rating_updates() {
        let (mut m, c) = ctx_fixtures();
        let before = {
            let ctx = Ctx::new(&m, &c);
            knn().predict(&ctx, UserId(0), ItemId(4)).unwrap().score
        };
        // Like-minded neighbour slams the item; prediction must drop.
        m.rate(UserId(1), ItemId(4), 1.0).unwrap();
        let after = {
            let ctx = Ctx::new(&m, &c);
            knn().predict(&ctx, UserId(0), ItemId(4)).unwrap().score
        };
        assert!(after < before, "expected {after} < {before}");
    }
}
