//! Synthetic worlds with latent-factor ground truth.
//!
//! The survey's cited studies ran on proprietary data (MovieLens
//! deployments, Amazon, TiVo). We substitute generative worlds: each world
//! has a hidden [`LatentModel`] defining every user's *true* utility for
//! every item, a catalog of schema-described items, and a ratings matrix
//! sampled from the model with exposure bias and noise.
//!
//! The latent space is *prototype-structured*: every item belongs to a
//! prototype (genre, topic, cuisine…) and item vectors cluster around
//! prototype vectors. User vectors are sparse mixtures of prototypes. This
//! gives content-based models something learnable, and makes
//! prototype-level assertions ("this user truly likes comedies") possible
//! in studies such as the transparency task (survey Section 3.1).
//!
//! # Rating sampling
//!
//! [`World::assemble`] gives each user a target of `density × n_items`
//! ratings. It draws items by exposure weight until the user meets the
//! target or has made 50 draws per target rating. A draw picks a
//! uniform `pick` in `[0, Σw)` and subtracts the weights from it one at
//! a time, in f64. It lands on the first item that drives the residual
//! to zero or below. If rounding leaves the residual positive after the
//! last item, the draw falls through to item 0.
//!
//! Every study number and every served answer depend on the sampled
//! worlds, so the sampler reproduces that scan exactly without scanning.
//! Rounding is monotone and the weights are non-negative, so each
//! residual only grows with `pick`, and no residual grows from one item
//! to the next. For each item `i` there is therefore a threshold: the
//! smallest `pick` whose residual after items `0..=i` is still positive.
//! The thresholds never decrease with `i`, and a draw lands on the number
//! of thresholds at or below its `pick`, found by binary search in
//! `O(log n)` steps instead of `O(n)`.
//!
//! The thresholds are exact, not prefix sums: a prefix sum rounds
//! differently from the subtraction and would move picks near a boundary
//! to the neighbouring item. Once per world, `exposure_thresholds`
//! bisects over f64 bit patterns, evaluating the scan's own subtraction
//! at each candidate, down to the one float where the residual turns
//! positive. A pick past the last threshold still maps to item 0.
//! Sending it to the last item instead would be more natural, but would
//! change the worlds.
//!
//! Users are sampled in id order, so each user's row is built directly.
//! A reused `seen` bitmap rejects repeat draws. The acceptance test's
//! utility feeds the noisy rating, and `Rating::new` checks each value.
//! The finished rows go to one `RatingsMatrix` constructor. It sums the
//! values in sampling order, sorts the rows, fills exact-capacity
//! columns and counts one revision per rating, just as one `rate` call
//! per rating would.

pub mod books;
pub mod cameras;
pub mod holidays;
pub mod movies;
pub mod names;
pub mod news;
pub mod restaurants;

use crate::catalog::Catalog;
use crate::matrix::RatingsMatrix;
use exrec_types::{ItemId, Rating, RatingScale, UserId};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Parameters controlling world generation.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldConfig {
    /// Number of users to simulate.
    pub n_users: usize,
    /// Number of items to generate (domain generators may round this to
    /// fit their templates).
    pub n_items: usize,
    /// Dimensionality of the latent preference space.
    pub n_factors: usize,
    /// Expected fraction of the catalog each user has rated.
    pub density: f64,
    /// Standard deviation of rating noise, on the `[0, 1]` utility scale.
    pub noise_sd: f64,
    /// Rating scale of the generated matrix.
    pub scale: RatingScale,
    /// RNG seed; equal configs generate identical worlds.
    pub seed: u64,
    /// Exposure skew: 0 = uniform exposure, larger = popular items are
    /// rated disproportionately often (Zipf-like exponent).
    pub popularity_skew: f64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self {
            n_users: 200,
            n_items: 120,
            n_factors: 8,
            density: 0.15,
            noise_sd: 0.08,
            scale: RatingScale::FIVE_STAR,
            seed: 0xEC,
            popularity_skew: 0.8,
        }
    }
}

impl WorldConfig {
    /// Convenience: same config with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Convenience: same config with different user/item counts.
    pub fn with_size(mut self, n_users: usize, n_items: usize) -> Self {
        self.n_users = n_users;
        self.n_items = n_items;
        self
    }
}

/// Hidden ground truth: latent user/item vectors plus per-item quality.
#[derive(Debug, Clone)]
pub struct LatentModel {
    n_factors: usize,
    user_factors: Vec<Vec<f64>>,
    item_factors: Vec<Vec<f64>>,
    item_quality: Vec<f64>,
    /// Sharpness of the dot-product → utility mapping.
    gain: f64,
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

fn normalize(v: &mut [f64]) {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 1e-12 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

fn random_unit(rng: &mut impl Rng, n: usize) -> Vec<f64> {
    // Box-Muller-free: sample from a symmetric triangular-ish distribution
    // and normalize; direction uniformity is not critical here.
    let mut v: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
    normalize(&mut v);
    v
}

fn gaussian(rng: &mut impl Rng, sd: f64) -> f64 {
    // Sum of 12 uniforms minus 6 approximates a standard normal.
    let s: f64 = (0..12).map(|_| rng.random_range(0.0..1.0)).sum::<f64>() - 6.0;
    s * sd
}

/// A utility plus rating noise, clamped to `[0, 1]` and put on `scale`.
fn add_noise(utility: f64, noise_sd: f64, scale: &RatingScale, rng: &mut ChaCha8Rng) -> f64 {
    scale.denormalize((utility + gaussian(rng, noise_sd)).clamp(0.0, 1.0))
}

/// The subtraction sampler's residual: `pick` minus each weight in turn,
/// rounded at every step exactly as the draw loop rounds it.
fn residual(pick: f64, weights: &[f64]) -> f64 {
    weights.iter().fold(pick, |r, &w| r - w)
}

/// Per-item thresholds for [`exposure_index`]: entry `i` is the smallest
/// non-negative `pick` whose residual after items `0..=i` is still
/// positive. Each is found by bisecting over f64 bit patterns, which
/// order like the values for non-negative floats.
fn exposure_thresholds(weights: &[f64]) -> Vec<f64> {
    let mut floor = 0u64;
    (1..=weights.len())
        .map(|end| {
            // Thresholds never decrease with `end`, and `+inf` always
            // leaves a positive residual, so the answer lies in
            // `floor..=inf`.
            let (mut lo, mut hi) = (floor, f64::INFINITY.to_bits());
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if residual(f64::from_bits(mid), &weights[..end]) > 0.0 {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            floor = lo;
            f64::from_bits(lo)
        })
        .collect()
}

/// The item a draw of `pick` lands on: the first whose residual is no
/// longer positive, or item 0 when rounding leaves the residual positive
/// after the last item.
fn exposure_index(thresholds: &[f64], pick: f64) -> usize {
    match thresholds.partition_point(|&t| t <= pick) {
        i if i == thresholds.len() => 0,
        i => i,
    }
}

impl LatentModel {
    /// Generates a prototype-structured latent model.
    ///
    /// * `prototypes[i]` assigns item `i` to one of `n_prototypes`
    ///   clusters;
    /// * item vectors are jittered prototype vectors;
    /// * user vectors are sparse mixtures of 1–3 prototypes.
    pub fn generate(
        n_users: usize,
        prototypes: &[usize],
        n_prototypes: usize,
        n_factors: usize,
        rng: &mut ChaCha8Rng,
    ) -> Self {
        let n_prototypes = n_prototypes.max(1);
        let proto_vecs: Vec<Vec<f64>> = (0..n_prototypes)
            .map(|_| random_unit(rng, n_factors))
            .collect();

        let item_factors: Vec<Vec<f64>> = prototypes
            .iter()
            .map(|&p| {
                let base = &proto_vecs[p.min(n_prototypes - 1)];
                let mut v: Vec<f64> = base.iter().map(|&x| x + gaussian(rng, 0.25)).collect();
                normalize(&mut v);
                v
            })
            .collect();

        let user_factors: Vec<Vec<f64>> = (0..n_users)
            .map(|_| {
                let n_likes = rng.random_range(1..=3usize.min(n_prototypes));
                let mut v = vec![0.0; n_factors];
                let mut chosen: Vec<usize> = (0..n_prototypes).collect();
                chosen.shuffle(rng);
                for &p in chosen.iter().take(n_likes) {
                    let w = rng.random_range(0.5..1.5);
                    for (dst, src) in v.iter_mut().zip(&proto_vecs[p]) {
                        *dst += w * src;
                    }
                }
                for x in v.iter_mut() {
                    *x += gaussian(rng, 0.15);
                }
                normalize(&mut v);
                v
            })
            .collect();

        let item_quality: Vec<f64> = (0..prototypes.len()).map(|_| gaussian(rng, 0.5)).collect();

        Self {
            n_factors,
            user_factors,
            item_factors,
            item_quality,
            gain: 2.5,
        }
    }

    /// Latent dimensionality.
    pub fn n_factors(&self) -> usize {
        self.n_factors
    }

    /// Number of users covered.
    pub fn n_users(&self) -> usize {
        self.user_factors.len()
    }

    /// Number of items covered.
    pub fn n_items(&self) -> usize {
        self.item_factors.len()
    }

    /// The *true* utility of `item` for `user`, in `(0, 1)`. Panics on
    /// out-of-range ids (ground truth is internal to generated worlds).
    pub fn utility(&self, user: UserId, item: ItemId) -> f64 {
        let u = &self.user_factors[user.index()];
        let q = &self.item_factors[item.index()];
        let dot: f64 = u.iter().zip(q).map(|(a, b)| a * b).sum();
        sigmoid(self.gain * dot + self.item_quality[item.index()])
    }

    /// True utility expressed on a rating scale (no noise).
    pub fn true_rating(&self, user: UserId, item: ItemId, scale: &RatingScale) -> f64 {
        scale.denormalize(self.utility(user, item))
    }

    /// A noisy observed rating on `scale`.
    pub fn noisy_rating(
        &self,
        user: UserId,
        item: ItemId,
        noise_sd: f64,
        scale: &RatingScale,
        rng: &mut ChaCha8Rng,
    ) -> f64 {
        add_noise(self.utility(user, item), noise_sd, scale, rng)
    }

    /// Cosine similarity of two users' latent vectors — the "people like
    /// you" ground truth.
    pub fn user_affinity(&self, a: UserId, b: UserId) -> f64 {
        let va = &self.user_factors[a.index()];
        let vb = &self.user_factors[b.index()];
        va.iter().zip(vb).map(|(x, y)| x * y).sum()
    }
}

/// A fully generated world: catalog + ratings + hidden ground truth.
#[derive(Debug, Clone)]
pub struct World {
    /// The item catalog.
    pub catalog: Catalog,
    /// Observed (sampled) ratings.
    pub ratings: RatingsMatrix,
    /// Hidden ground truth.
    pub latent: LatentModel,
    /// Item → prototype assignment used during generation.
    pub prototypes: Vec<usize>,
    /// Prototype display names (genre/topic/cuisine names).
    pub prototype_names: Vec<String>,
    /// The configuration the world was generated from.
    pub config: WorldConfig,
}

impl World {
    /// Samples ratings and assembles a world from a prepared catalog and
    /// prototype assignment. Used by every domain generator.
    pub fn assemble(
        catalog: Catalog,
        prototypes: Vec<usize>,
        prototype_names: Vec<String>,
        config: &WorldConfig,
        rng: &mut ChaCha8Rng,
    ) -> Self {
        assert_eq!(catalog.len(), prototypes.len());
        let n_items = catalog.len();
        let latent = LatentModel::generate(
            config.n_users,
            &prototypes,
            prototype_names.len(),
            config.n_factors,
            rng,
        );

        // Exposure weights: Zipf-ish over a random popularity order.
        let mut order: Vec<usize> = (0..n_items).collect();
        order.shuffle(rng);
        let mut exposure = vec![0.0; n_items];
        for (rank, &item) in order.iter().enumerate() {
            exposure[item] = 1.0 / ((rank + 1) as f64).powf(config.popularity_skew);
        }
        let exposure_sum: f64 = exposure.iter().sum();

        let thresholds = exposure_thresholds(&exposure);
        let per_user = ((n_items as f64 * config.density).round() as usize).clamp(1, n_items);

        let mut seen = vec![false; n_items];
        let mut row = Vec::with_capacity(per_user);
        let mut rows = Vec::with_capacity(config.n_users);
        for u in 0..config.n_users {
            let user = UserId::new(u as u32);
            let mut guard = 0usize;
            while row.len() < per_user && guard < per_user * 50 {
                guard += 1;
                // Sample an item by exposure weight.
                let idx = exposure_index(&thresholds, rng.random_range(0.0..exposure_sum));
                if seen[idx] {
                    continue;
                }
                let item = ItemId::new(idx as u32);
                // Mild self-selection: users are more likely to have
                // consumed (and thus rated) items they like.
                let util = latent.utility(user, item);
                if rng.random_range(0.0..1.0) > 0.35 + 0.65 * util {
                    continue;
                }
                let v = add_noise(util, config.noise_sd, &config.scale, rng);
                let v = Rating::new(v, &config.scale)
                    .expect("denormalized ratings are on scale")
                    .value();
                seen[idx] = true;
                row.push((item, v));
            }
            for &(item, _) in &row {
                seen[item.index()] = false;
            }
            rows.push(row.to_vec());
            row.clear();
        }
        let ratings = RatingsMatrix::from_rows(n_items, config.scale, rows);

        Self {
            catalog,
            ratings,
            latent,
            prototypes,
            prototype_names,
            config: config.clone(),
        }
    }

    /// The prototype (genre/topic/…) name of an item.
    pub fn prototype_of(&self, item: ItemId) -> &str {
        &self.prototype_names[self.prototypes[item.index()]]
    }

    /// The prototype a user truly likes most, determined by averaging true
    /// utility per prototype. Studies use this as the "teach the system I
    /// like comedies" target.
    pub fn favourite_prototype(&self, user: UserId) -> usize {
        let mut sums = vec![0.0f64; self.prototype_names.len()];
        let mut counts = vec![0usize; self.prototype_names.len()];
        for item in self.catalog.ids() {
            let p = self.prototypes[item.index()];
            sums[p] += self.latent.utility(user, item);
            counts[p] += 1;
        }
        let mut best = 0;
        let mut best_score = f64::MIN;
        for p in 0..sums.len() {
            if counts[p] > 0 {
                let s = sums[p] / counts[p] as f64;
                if s > best_score {
                    best_score = s;
                    best = p;
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_world() -> World {
        movies::generate(&WorldConfig {
            n_users: 30,
            n_items: 40,
            density: 0.3,
            ..WorldConfig::default()
        })
    }

    /// The linear CDF scan, the oracle for the threshold lookup: subtract
    /// each weight in turn and take the first item that drives the
    /// residual to zero or below, else fall through to item 0.
    fn scan_index(weights: &[f64], mut pick: f64) -> usize {
        for (i, &w) in weights.iter().enumerate() {
            pick -= w;
            if pick <= 0.0 {
                return i;
            }
        }
        0
    }

    #[test]
    fn threshold_lookup_matches_the_linear_scan() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5CA7);
        for case in 0..200 {
            let n = rng.random_range(1..=64usize);
            let weights: Vec<f64> = match case % 3 {
                // Zipf-like, as `World::assemble` builds them.
                0 => {
                    let skew = rng.random_range(0.0..2.0);
                    (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(skew)).collect()
                }
                // Uniform magnitudes.
                1 => (0..n).map(|_| rng.random_range(0.0..1.0)).collect(),
                // Magnitudes spread over many binades, so that rounding
                // in the subtraction matters.
                _ => (0..n)
                    .map(|_| rng.random_range(0.5..1.0) * 2f64.powi(rng.random_range(-60..8i32)))
                    .collect(),
            };
            let sum: f64 = weights.iter().sum();
            let thresholds = exposure_thresholds(&weights);
            let mut picks = vec![0.0, f64::from_bits(sum.to_bits() - 1)];
            picks.extend((0..200).map(|_| rng.random_range(0.0..sum)));
            for &t in thresholds.iter().filter(|t| t.is_finite()) {
                let bits = t.to_bits();
                picks.extend([t, f64::from_bits(bits - 1), f64::from_bits(bits + 1)]);
            }
            for pick in picks {
                assert_eq!(
                    exposure_index(&thresholds, pick),
                    scan_index(&weights, pick),
                    "case {case}: pick {pick:e} over {weights:?}"
                );
            }
        }
    }

    #[test]
    fn threshold_lookup_keeps_the_fall_through_to_item_zero() {
        // The sum rounds up at every tiny weight (1 + 0.625 ulp → 1 + 1
        // ulp, …, → 1 + 4 ulp), while subtracting them from a pick below
        // the sum is exact, so the residual stays positive.
        let ulp = f64::EPSILON;
        let tiny = 0.625 * ulp;
        let weights = [1.0, tiny, tiny, tiny, tiny];
        let sum: f64 = weights.iter().sum();
        assert_eq!(sum, 1.0 + 4.0 * ulp);
        let pick = f64::from_bits(sum.to_bits() - 1);
        assert!(residual(pick, &weights) > 0.0);
        let thresholds = exposure_thresholds(&weights);
        assert_eq!(scan_index(&weights, pick), 0);
        assert_eq!(exposure_index(&thresholds, pick), 0);
        // Just below the last threshold the draw lands on the last item.
        let below_last = f64::from_bits(thresholds[4].to_bits() - 1);
        assert_eq!(scan_index(&weights, below_last), 4);
        assert_eq!(exposure_index(&thresholds, below_last), 4);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_world();
        let b = small_world();
        assert_eq!(a.ratings, b.ratings);
        assert_eq!(
            a.catalog.iter().map(|i| &i.title).collect::<Vec<_>>(),
            b.catalog.iter().map(|i| &i.title).collect::<Vec<_>>()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = movies::generate(&WorldConfig::default().with_seed(1));
        let b = movies::generate(&WorldConfig::default().with_seed(2));
        assert_ne!(a.ratings, b.ratings);
    }

    #[test]
    fn utilities_in_unit_interval() {
        let w = small_world();
        for u in w.ratings.users().take(10) {
            for i in w.catalog.ids().take(10) {
                let util = w.latent.utility(u, i);
                assert!(util > 0.0 && util < 1.0, "utility {util} out of range");
            }
        }
    }

    #[test]
    fn ratings_are_on_scale() {
        let w = small_world();
        for (_, _, v) in w.ratings.triples() {
            assert!(w.ratings.scale().contains(v));
        }
    }

    #[test]
    fn ratings_roughly_match_density() {
        let w = small_world();
        let expected = (w.catalog.len() as f64 * 0.3).round() as usize * 30;
        let got = w.ratings.n_ratings();
        assert!(
            got as f64 > expected as f64 * 0.5,
            "got {got}, expected near {expected}"
        );
    }

    #[test]
    fn ratings_correlate_with_true_utility() {
        let w = small_world();
        let mut num = 0.0;
        let mut du = 0.0;
        let mut dv = 0.0;
        let (mut mu, mut mv, mut n) = (0.0, 0.0, 0.0);
        let pairs: Vec<(f64, f64)> = w
            .ratings
            .triples()
            .map(|(u, i, v)| (w.latent.utility(u, i), v))
            .collect();
        for &(a, b) in &pairs {
            mu += a;
            mv += b;
            n += 1.0;
        }
        mu /= n;
        mv /= n;
        for &(a, b) in &pairs {
            num += (a - mu) * (b - mv);
            du += (a - mu) * (a - mu);
            dv += (b - mv) * (b - mv);
        }
        let r = num / (du.sqrt() * dv.sqrt());
        assert!(r > 0.6, "observed ratings should track true utility, r={r}");
    }

    #[test]
    fn favourite_prototype_is_stable() {
        let w = small_world();
        let u = UserId::new(0);
        assert_eq!(w.favourite_prototype(u), w.favourite_prototype(u));
        assert!(w.favourite_prototype(u) < w.prototype_names.len());
    }

    #[test]
    fn user_affinity_symmetric() {
        let w = small_world();
        let (a, b) = (UserId::new(1), UserId::new(2));
        assert!((w.latent.user_affinity(a, b) - w.latent.user_affinity(b, a)).abs() < 1e-12);
        assert!((w.latent.user_affinity(a, a) - 1.0).abs() < 1e-9);
    }
}
