//! `World::assemble` against the sampling loop it replaced.
//!
//! `assemble` finds each exposure draw by binary search over exact
//! per-item thresholds and builds every user's row in one pass. The
//! oracle below is the earlier loop: a linear scan of the exposure CDF
//! per draw and one `rate()` call per accepted rating. Fed the same
//! catalog and the same RNG state, both must leave the same world, bit
//! for bit, and the same RNG state behind.

use exrec_data::snapshot;
use exrec_data::synth::{books, cameras, holidays, movies, news, restaurants};
use exrec_data::{LatentModel, RatingsMatrix, World, WorldConfig};
use exrec_types::{ItemId, RatingScale, UserId};
use rand::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The ratings the earlier `World::assemble` sampled, making the same
/// RNG calls in the same order.
fn assemble_oracle(
    n_items: usize,
    prototypes: &[usize],
    n_prototypes: usize,
    config: &WorldConfig,
    rng: &mut ChaCha8Rng,
) -> RatingsMatrix {
    let latent = LatentModel::generate(
        config.n_users,
        prototypes,
        n_prototypes,
        config.n_factors,
        rng,
    );

    let mut order: Vec<usize> = (0..n_items).collect();
    order.shuffle(rng);
    let mut exposure = vec![0.0; n_items];
    for (rank, &item) in order.iter().enumerate() {
        exposure[item] = 1.0 / ((rank + 1) as f64).powf(config.popularity_skew);
    }
    let exposure_sum: f64 = exposure.iter().sum();

    let mut ratings = RatingsMatrix::new(config.n_users, n_items, config.scale);
    let per_user = ((n_items as f64 * config.density).round() as usize).clamp(1, n_items);

    for u in 0..config.n_users {
        let user = UserId::new(u as u32);
        let mut rated = 0usize;
        let mut guard = 0usize;
        while rated < per_user && guard < per_user * 50 {
            guard += 1;
            let mut pick = rng.random_range(0.0..exposure_sum);
            let mut idx = 0usize;
            for (i, &w) in exposure.iter().enumerate() {
                pick -= w;
                if pick <= 0.0 {
                    idx = i;
                    break;
                }
            }
            let item = ItemId::new(idx as u32);
            if ratings.rating(user, item).is_some() {
                continue;
            }
            let util = latent.utility(user, item);
            if rng.random_range(0.0..1.0) > 0.35 + 0.65 * util {
                continue;
            }
            let v = latent.noisy_rating(user, item, config.noise_sd, &config.scale, rng);
            ratings
                .rate(user, item, v)
                .expect("generated ids are in range");
            rated += 1;
        }
    }
    ratings
}

type Generator = fn(&WorldConfig) -> World;

const DOMAINS: [(&str, Generator); 6] = [
    ("movies", movies::generate),
    ("books", books::generate),
    ("cameras", cameras::generate),
    ("holidays", holidays::generate),
    ("news", news::generate),
    ("restaurants", restaurants::generate),
];

/// Re-samples `world`'s catalog through both loops from one RNG state
/// and checks that they agree. Returns whether some user stopped short
/// of the per-user target (the `50 × per_user` draw guard tripped).
fn check(domain: &str, world: &World, seed: u64) -> bool {
    let config = &world.config;
    let n_items = world.catalog.len();
    let mut rng_new = ChaCha8Rng::seed_from_u64(seed);
    let mut rng_old = rng_new.clone();

    let new = World::assemble(
        world.catalog.clone(),
        world.prototypes.clone(),
        world.prototype_names.clone(),
        config,
        &mut rng_new,
    )
    .ratings;
    let old = assemble_oracle(
        n_items,
        &world.prototypes,
        world.prototype_names.len(),
        config,
        &mut rng_old,
    );

    let case = format!(
        "{domain}, skew {}, density {}, scale {}, seed {seed}",
        config.popularity_skew, config.density, config.scale
    );
    assert_eq!(new, old, "{case}: ratings differ");
    assert_eq!(new.revision(), old.revision(), "{case}: revision");
    assert_eq!(
        new.global_mean().to_bits(),
        old.global_mean().to_bits(),
        "{case}: global mean"
    );
    assert_eq!(
        snapshot::encode(&new),
        snapshot::encode(&old),
        "{case}: snapshot bytes"
    );
    assert_eq!(rng_new.next_u64(), rng_old.next_u64(), "{case}: RNG state");

    let per_user = ((n_items as f64 * config.density).round() as usize).clamp(1, n_items);
    let short = new.users().any(|u| new.user_ratings(u).len() < per_user);
    short
}

/// Uniform exposure (skew 0), the default skew, and a steep skew under
/// which a user who must rate every item runs out of draws before the
/// rarest ones come up. Each seed takes one scale; on the continuous
/// one, a sum taken in another order would change the mean's bits.
#[test]
fn assemble_matches_the_linear_scan_loop_on_every_domain() {
    let mut guard_tripped = false;
    for (domain, generate) in DOMAINS {
        for popularity_skew in [0.0, 0.8, 1.6] {
            for density in [0.05, 0.3, 1.0] {
                for (seed, scale) in [
                    (1, RatingScale::FIVE_STAR),
                    (7, RatingScale::HALF_STAR),
                    (0xEC, RatingScale::UNIT),
                ] {
                    let world = generate(&WorldConfig {
                        n_users: 40,
                        n_items: 48,
                        density,
                        scale,
                        seed,
                        popularity_skew,
                        ..WorldConfig::default()
                    });
                    guard_tripped |= check(domain, &world, seed ^ 0xA55E);
                }
            }
        }
    }
    assert!(guard_tripped, "no case tripped the draw guard");
}
