//! Cluster-pruned candidate index: coarse k-means over rating vectors.
//!
//! Exact mode makes the neighbour scan fast; this index makes it
//! *sub-linear*. Users are grouped into `C` coarse clusters by cosine
//! similarity of their sparse rating rows, and a pruned scan probes
//! only the `P` centroids nearest the target user, scoring the union of
//! their members instead of the whole user dimension. With `C ≈ √n/2`
//! and a handful of probes, a 100k-user world scans a few thousand
//! candidates per request.
//!
//! Everything here is deterministic: centroid seeding strides the id
//! space from a seeded offset, Lloyd iterations visit users in id
//! order, and assignment ties break toward the lowest centroid id.
//! Rebuilding the index for the same matrix revision always yields the
//! same clusters, so pruned results are reproducible run to run.
//!
//! Pruning is approximate by construction — a true neighbour can live
//! in an unprobed cluster. The quality bar (recall@k ≥ 0.99 against the
//! exact scan on seeded worlds) is enforced by property tests in
//! `crates/algo/tests/kernel.rs` and gated on served traffic by
//! `perfbench --trace 1`; `docs/kernels.md#pruned-probing` walks
//! through the semantics and the exact-fallback rules.

use exrec_data::RatingsMatrix;
use exrec_types::{ItemId, UserId};

/// Configuration for [`CandidateIndex::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexConfig {
    /// Number of coarse centroids; `0` picks `√n_users / 2`, clamped to
    /// `8..=256`.
    pub centroids: usize,
    /// Centroids probed per query; `0` picks `max(4, centroids / 8)`.
    pub probes: usize,
    /// Lloyd refinement iterations over the sample.
    pub iterations: usize,
    /// Maximum users visited per Lloyd iteration (strided sample); the
    /// final membership pass always covers every user.
    pub sample: usize,
    /// Hard floor on the candidate-set size a pruned scan may run with;
    /// [`ScanEngine::fallback_floor`](crate::kernel::ScanEngine::fallback_floor)
    /// combines it with the neighbourhood size `k`.
    pub min_candidates: usize,
    /// Budget for the overlap-pruned candidate pass
    /// ([`overlap_candidates`](crate::kernel::overlap_candidates))
    /// whose result is unioned with the probed cluster members; `0`
    /// picks `n_users / 5`, clamped to at least `2048`. Cluster
    /// probing finds *taste* neighbours; the overlap pass finds the
    /// high-co-rating users whose Herlocker significance weight makes
    /// them dominate neighbourhoods — the measured ≥ 0.99 neighbour
    /// recall (docs/kernels.md#the-recallk-guarantee) needs both.
    pub candidate_budget: usize,
    /// Seed for the (deterministic) strided centroid initialisation.
    pub seed: u64,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            centroids: 0,
            probes: 0,
            iterations: 3,
            sample: 20_000,
            min_candidates: 64,
            candidate_budget: 0,
            seed: 0x1D_EC0DE,
        }
    }
}

impl IndexConfig {
    fn resolve_centroids(&self, n_users: usize) -> usize {
        let c = if self.centroids == 0 {
            (((n_users as f64).sqrt() * 0.5) as usize).clamp(8, 256)
        } else {
            self.centroids
        };
        c.clamp(1, n_users.max(1))
    }

    fn resolve_probes(&self, centroids: usize) -> usize {
        let p = if self.probes == 0 {
            (centroids / 8).max(4)
        } else {
            self.probes
        };
        p.clamp(1, centroids)
    }

    /// The resolved overlap-pass budget for a world of `n_users`.
    pub fn resolve_budget(&self, n_users: usize) -> usize {
        if self.candidate_budget == 0 {
            (n_users / 5).max(2048)
        } else {
            self.candidate_budget
        }
    }
}

/// A built index: cluster membership lists plus the centroids needed to
/// route queries, frozen at one matrix revision.
#[derive(Debug, Clone)]
pub struct CandidateIndex {
    revision: u64,
    n_users: usize,
    probes: usize,
    /// Per-cluster member lists, each sorted ascending by user id.
    members: Vec<Vec<u32>>,
    /// Centroid coordinates in **item-major** layout:
    /// `vals[item * C + c]` is centroid `c`'s weight on `item`. A
    /// query walks its sparse row once and accumulates all `C` scores
    /// from contiguous per-item blocks. `Arc`-shared so
    /// [`CandidateIndex::reassign`] clones membership without copying
    /// megabytes of frozen centroid geometry.
    vals: std::sync::Arc<Vec<f64>>,
    /// Per-centroid Euclidean norms (for cosine scoring), shared like
    /// `vals`.
    norms: std::sync::Arc<Vec<f64>>,
}

impl CandidateIndex {
    /// Clusters `ratings`' users under `cfg`. `O(iterations · sample ·
    /// row · C)` to refine, plus one full assignment pass.
    pub fn build(ratings: &RatingsMatrix, cfg: &IndexConfig) -> Self {
        let n_users = ratings.n_users();
        let n_items = ratings.n_items();
        let c = cfg.resolve_centroids(n_users);
        let probes = cfg.resolve_probes(c);
        let mut vals = vec![0.0f64; n_items * c];
        let mut norms = vec![0.0f64; c];

        // Seed centroids from non-empty rows, strided across the id
        // space from a seeded offset so clusters start spread out.
        let seeds = {
            let mut non_empty: Vec<u32> = (0..n_users as u32)
                .filter(|&u| !ratings.user_ratings(UserId(u)).is_empty())
                .collect();
            if non_empty.is_empty() {
                non_empty.extend(0..n_users.min(c) as u32);
            }
            let stride = (non_empty.len() / c.max(1)).max(1);
            let offset = (cfg.seed as usize) % stride;
            let mut picked = Vec::with_capacity(c);
            let mut at = offset;
            while picked.len() < c && at < non_empty.len() {
                picked.push(non_empty[at]);
                at += stride;
            }
            // Short worlds: wrap round-robin until every centroid has
            // a seed row.
            let mut wrap = 0usize;
            while picked.len() < c && !non_empty.is_empty() {
                picked.push(non_empty[wrap % non_empty.len()]);
                wrap += 1;
            }
            picked
        };
        for (ci, &u) in seeds.iter().enumerate() {
            let (row, mean) = centred_row(ratings, u);
            for &(item, value) in row {
                vals[item.index() * c + ci] = value - mean;
            }
        }
        recompute_norms(&vals, &mut norms, n_items, c);

        // Lloyd refinement over a strided sample of users.
        let sample_stride = if cfg.sample == 0 || n_users <= cfg.sample {
            1
        } else {
            n_users.div_ceil(cfg.sample)
        };
        let mut scores = vec![0.0f64; c];
        for _ in 0..cfg.iterations {
            let mut acc = vec![0.0f64; n_items * c];
            let mut counts = vec![0u64; c];
            let mut u = 0usize;
            while u < n_users {
                let (row, mean) = centred_row(ratings, u as u32);
                if !row.is_empty() {
                    let ci = assign(row, mean, &vals, &norms, c, &mut scores);
                    for &(item, value) in row {
                        acc[item.index() * c + ci] += value - mean;
                    }
                    counts[ci] += 1;
                }
                u += sample_stride;
            }
            // Move non-empty clusters to their member mean; clusters
            // that attracted nobody keep their previous centroid.
            for ci in 0..c {
                if counts[ci] == 0 {
                    continue;
                }
                let inv = 1.0 / counts[ci] as f64;
                for item in 0..n_items {
                    vals[item * c + ci] = acc[item * c + ci] * inv;
                }
            }
            recompute_norms(&vals, &mut norms, n_items, c);
        }

        // Final membership pass over every user, ascending id order, so
        // member lists come out sorted. Empty rows round-robin across
        // clusters: they carry no signal and never score anyway.
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); c];
        for u in 0..n_users {
            let (row, mean) = centred_row(ratings, u as u32);
            let ci = if row.is_empty() {
                u % c
            } else {
                assign(row, mean, &vals, &norms, c, &mut scores)
            };
            members[ci].push(u as u32);
        }

        CandidateIndex {
            revision: ratings.revision(),
            n_users,
            probes,
            members,
            vals: std::sync::Arc::new(vals),
            norms: std::sync::Arc::new(norms),
        }
    }

    /// Re-routes `users` to their nearest centroid against the *frozen*
    /// geometry, returning an index stamped with `ratings`' revision. This
    /// is the incremental write path: a rating write moves one user's
    /// row, so only that user's cluster membership can change — the
    /// centroids themselves stay put (they are `Arc`-shared, not
    /// copied) and drift is bounded by the engine's rebuild threshold.
    ///
    /// Assignment uses the exact scoring as [`CandidateIndex::build`]'s
    /// final pass (cosine, ties toward the lowest centroid id; empty
    /// rows round-robin by id), so a user whose row did not meaningfully
    /// move stays in the same cluster.
    pub fn reassign(&self, ratings: &RatingsMatrix, users: &[u32]) -> CandidateIndex {
        let c = self.n_centroids();
        let mut members = self.members.clone();
        let mut scores = vec![0.0f64; c];
        for &u in users {
            if (u as usize) >= self.n_users || c == 0 {
                continue;
            }
            let (row, mean) = centred_row(ratings, u);
            let target = if row.is_empty() {
                (u as usize) % c
            } else {
                assign(row, mean, &self.vals, &self.norms, c, &mut scores)
            };
            let current = members
                .iter()
                .position(|list| list.binary_search(&u).is_ok());
            match current {
                Some(ci) if ci == target => {}
                Some(ci) => {
                    let at = members[ci].binary_search(&u).expect("found above");
                    members[ci].remove(at);
                    let at = members[target].binary_search(&u).unwrap_err();
                    members[target].insert(at, u);
                }
                None => {
                    let at = members[target].binary_search(&u).unwrap_err();
                    members[target].insert(at, u);
                }
            }
        }
        CandidateIndex {
            revision: ratings.revision(),
            n_users: self.n_users,
            probes: self.probes,
            members,
            vals: std::sync::Arc::clone(&self.vals),
            norms: std::sync::Arc::clone(&self.norms),
        }
    }

    /// The matrix revision this index was built from.
    #[inline]
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Number of centroids.
    pub fn n_centroids(&self) -> usize {
        self.members.len()
    }

    /// Centroids probed per query.
    pub fn probes(&self) -> usize {
        self.probes
    }

    /// `(mean, max)` cluster sizes, for debug surfaces.
    pub fn cluster_sizes(&self) -> (f64, usize) {
        let max = self.members.iter().map(Vec::len).max().unwrap_or(0);
        let mean = self.n_users as f64 / self.members.len().max(1) as f64;
        (mean, max)
    }

    /// The pruned candidate set for `user`: the sorted, deduplicated
    /// union of the members of the `probes` nearest centroids (cosine,
    /// ties toward the lower centroid id). A user with an empty row has
    /// no signal to route on and gets an empty set, which the caller's
    /// fallback floor turns into an exact scan.
    pub fn candidates(&self, ratings: &RatingsMatrix, user: u32) -> Vec<u32> {
        let c = self.n_centroids();
        if c == 0 {
            return Vec::new();
        }
        let (row, mean) = centred_row(ratings, user);
        if row.is_empty() {
            return Vec::new();
        }
        let mut scores = vec![0.0f64; c];
        score_row(row, mean, &self.vals, c, &mut scores);
        for (score, &norm) in scores.iter_mut().zip(self.norms.iter()) {
            if norm > 0.0 {
                *score /= norm;
            }
        }
        // Rank centroids by score descending, centroid id ascending on
        // ties; take the first `probes`.
        let mut order: Vec<usize> = (0..c).collect();
        order.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut out = Vec::new();
        for &ci in order.iter().take(self.probes) {
            out.extend_from_slice(&self.members[ci]);
        }
        // Member lists are disjoint and sorted; a concat of few lists
        // just needs one merge-style sort.
        out.sort_unstable();
        out
    }
}

/// A user's row and its mean (`0.0` for an empty row), the two halves
/// of the mean-centred rating vector the clustering works on.
fn centred_row(ratings: &RatingsMatrix, user: u32) -> (&[(ItemId, f64)], f64) {
    let user = UserId(user);
    (
        ratings.user_ratings(user),
        ratings.user_mean(user).unwrap_or(0.0),
    )
}

/// Accumulates `(row − mean) · centroid_c` for all centroids at once
/// from the item-major centroid table. Rows are mean-centred so the
/// clustering geometry matches Pearson-style "taste after removing the
/// user's own scale" rather than raw positive-rating magnitude — on
/// 1–5 star data every raw row points the same direction, and
/// clusters built there separate by popularity, not preference.
#[inline]
fn score_row(row: &[(ItemId, f64)], mean: f64, vals: &[f64], c: usize, scores: &mut [f64]) {
    scores.fill(0.0);
    for &(item, value) in row {
        let x = value - mean;
        let base = item.index() * c;
        for (ci, s) in scores.iter_mut().enumerate() {
            *s += x * vals[base + ci];
        }
    }
}

/// Assigns one (non-empty) user row to its nearest centroid by cosine
/// score, ties toward the lowest centroid id.
fn assign(
    row: &[(ItemId, f64)],
    mean: f64,
    vals: &[f64],
    norms: &[f64],
    c: usize,
    scores: &mut [f64],
) -> usize {
    score_row(row, mean, vals, c, scores);
    let mut best = 0usize;
    let mut best_score = f64::NEG_INFINITY;
    for ci in 0..c {
        let s = if norms[ci] > 0.0 {
            scores[ci] / norms[ci]
        } else {
            0.0
        };
        if s > best_score {
            best_score = s;
            best = ci;
        }
    }
    best
}

fn recompute_norms(vals: &[f64], norms: &mut [f64], n_items: usize, c: usize) {
    norms.fill(0.0);
    for item in 0..n_items {
        let base = item * c;
        for ci in 0..c {
            let v = vals[base + ci];
            norms[ci] += v * v;
        }
    }
    for n in norms.iter_mut() {
        *n = n.sqrt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exrec_types::RatingScale;

    /// Two obvious taste blocks: users 0..10 love items 0..5 and pan
    /// items 5..10; users 10..20 are the mirror image. Everyone rates
    /// everything, so the blocks differ in *preference*, which is what
    /// the mean-centred clustering geometry separates.
    fn blocky_matrix() -> RatingsMatrix {
        let mut m = RatingsMatrix::new(20, 10, RatingScale::FIVE_STAR);
        for u in 0..20u32 {
            for i in 0..10u32 {
                let loved = (u < 10) == (i < 5);
                let v = if loved {
                    if (u + i) % 3 == 0 {
                        5.0
                    } else {
                        4.0
                    }
                } else if (u + i) % 3 == 0 {
                    2.0
                } else {
                    1.0
                };
                m.rate(UserId(u), ItemId(i), v).unwrap();
            }
        }
        m
    }

    fn cfg(centroids: usize, probes: usize) -> IndexConfig {
        IndexConfig {
            centroids,
            probes,
            ..IndexConfig::default()
        }
    }

    #[test]
    fn auto_shape_scales_with_world() {
        let c = IndexConfig::default().resolve_centroids(100_000);
        assert_eq!(c, 158, "√100k / 2");
        assert_eq!(IndexConfig::default().resolve_probes(c), 19);
        assert_eq!(IndexConfig::default().resolve_centroids(10), 8);
        assert_eq!(
            IndexConfig::default().resolve_centroids(4),
            4,
            "clamped to n_users"
        );
    }

    #[test]
    fn members_partition_all_users_sorted() {
        let m = blocky_matrix();
        let index = CandidateIndex::build(&m, &cfg(4, 2));
        let mut all: Vec<u32> = index.members.iter().flatten().copied().collect();
        assert!(index
            .members
            .iter()
            .all(|list| list.windows(2).all(|w| w[0] < w[1])));
        all.sort_unstable();
        assert_eq!(all, (0..20u32).collect::<Vec<_>>());
        assert_eq!(index.revision(), m.revision());
    }

    #[test]
    fn blocks_separate_and_candidates_find_own_block() {
        let m = blocky_matrix();
        let index = CandidateIndex::build(&m, &cfg(2, 1));
        let cands = index.candidates(&m, 0);
        assert!(cands.contains(&1), "same-taste user is a candidate");
        assert!(
            !cands.contains(&15),
            "opposite block pruned away at 1 probe: {cands:?}"
        );
        assert!(
            cands.windows(2).all(|w| w[0] < w[1]),
            "sorted, deduplicated"
        );
        // Probing every centroid recovers the full user set.
        let wide = CandidateIndex::build(&m, &cfg(2, 2));
        assert_eq!(wide.candidates(&m, 0).len(), 20);
    }

    #[test]
    fn build_is_deterministic() {
        let m = blocky_matrix();
        let a = CandidateIndex::build(&m, &cfg(4, 2));
        let b = CandidateIndex::build(&m, &cfg(4, 2));
        assert_eq!(a.members, b.members);
        assert_eq!(a.candidates(&m, 7), b.candidates(&m, 7));
    }

    #[test]
    fn reassign_moves_only_touched_users() {
        let mut m = blocky_matrix();
        let index = CandidateIndex::build(&m, &cfg(2, 1));
        let cluster_of = |index: &CandidateIndex, u: u32| {
            index
                .members
                .iter()
                .position(|list| list.binary_search(&u).is_ok())
                .unwrap()
        };
        let before_0 = cluster_of(&index, 0);
        let before_15 = cluster_of(&index, 15);
        assert_ne!(before_0, before_15, "blocks start separated");

        // User 0 defects to the mirror taste block.
        for i in 0..10u32 {
            let loved = i >= 5;
            m.rate(UserId(0), ItemId(i), if loved { 5.0 } else { 1.0 })
                .unwrap();
        }
        let patched = index.reassign(&m, &[0]);
        assert_eq!(patched.revision(), m.revision());
        assert_eq!(
            cluster_of(&patched, 0),
            before_15,
            "touched user re-routes to the block it now matches"
        );
        // Untouched users keep their clusters; membership still
        // partitions the id space, sorted.
        for u in 1..20u32 {
            assert_eq!(cluster_of(&patched, u), cluster_of(&index, u));
        }
        let mut all: Vec<u32> = patched.members.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..20u32).collect::<Vec<_>>());
        assert!(patched
            .members
            .iter()
            .all(|list| list.windows(2).all(|w| w[0] < w[1])));

        // A user whose row did not move stays put even when listed.
        let stable = index.reassign(&m, &[7]);
        assert_eq!(stable.members, index.members);
    }

    #[test]
    fn empty_row_has_no_candidates() {
        let mut m = RatingsMatrix::new(5, 3, RatingScale::FIVE_STAR);
        m.rate(UserId(0), ItemId(0), 4.0).unwrap();
        m.rate(UserId(1), ItemId(0), 5.0).unwrap();
        let index = CandidateIndex::build(&m, &cfg(2, 1));
        assert!(index.candidates(&m, 4).is_empty());
    }
}
