//! Integration tests for the batch serving path: whatever the thread
//! count, `BatchPool::recommend_batch` must return exactly what the
//! sequential per-user loop returns — bit for bit.

use exrec_algo::baseline::Popularity;
use exrec_algo::batch::BatchPool;
use exrec_algo::{Ctx, Recommender, Scored, UserKnn};
use exrec_data::synth::{movies, WorldConfig};
use exrec_data::World;
use exrec_types::UserId;

fn world() -> World {
    movies::generate(&WorldConfig {
        n_users: 120,
        n_items: 60,
        density: 0.2,
        seed: 0xBA7C,
        ..WorldConfig::default()
    })
}

fn sequential<R: Recommender + ?Sized>(
    model: &R,
    ctx: &Ctx<'_>,
    users: &[UserId],
    n: usize,
) -> Vec<Vec<Scored>> {
    users.iter().map(|&u| model.recommend(ctx, u, n)).collect()
}

/// Compares two result sets down to the bit pattern of every score, so a
/// "close enough" floating-point drift still fails.
fn assert_bit_identical(a: &[Vec<Scored>], b: &[Vec<Scored>], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: result count");
    for (i, (xs, ys)) in a.iter().zip(b).enumerate() {
        assert_eq!(xs.len(), ys.len(), "{label}: user #{i} result length");
        for (x, y) in xs.iter().zip(ys) {
            assert_eq!(x.item, y.item, "{label}: user #{i} item");
            assert_eq!(
                x.prediction.score.to_bits(),
                y.prediction.score.to_bits(),
                "{label}: user #{i} item {:?} score bits",
                x.item
            );
        }
    }
}

#[test]
fn recommend_batch_matches_sequential_across_thread_counts() {
    let w = world();
    let ctx = Ctx::new(&w.ratings, &w.catalog);
    let users: Vec<UserId> = w.ratings.users().collect();

    let knn = UserKnn::default();
    let pop = Popularity::default();
    let knn_reference = sequential(&knn, &ctx, &users, 5);
    let pop_reference = sequential(&pop, &ctx, &users, 5);

    for threads in [1, 4, 8] {
        let pool = BatchPool::new(threads);
        assert_bit_identical(
            &pool.recommend_batch(&knn, &ctx, &users, 5),
            &knn_reference,
            &format!("UserKnn @ {threads} threads"),
        );
        assert_bit_identical(
            &pool.recommend_batch(&pop, &ctx, &users, 5),
            &pop_reference,
            &format!("Popularity @ {threads} threads"),
        );
    }
}
