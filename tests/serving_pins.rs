//! The served answers, pinned bit for bit.
//!
//! The server answers `/v1/recommend` from an engine-backed user-kNN
//! and `/v1/explain` from its `predict_with_evidence`. Each test digests
//! both on one served world with FNV-1a-64: the top-10 lists (item ids
//! and score bits) of a fixed user sample, and the prediction and
//! neighbour list (user ids, similarity and rating bits) of a fixed
//! `(user, item)` sample, in pruned mode (the served default) and in
//! exact mode. A change to the scan kernel, the candidate index, the
//! gather or the ratings store that moves one served bit fails here.
//!
//! The 30k world takes seconds in a debug build, so its case is
//! `#[ignore]`d here and runs in release mode:
//!
//! ```sh
//! cargo test --release --test serving_pins -- --ignored
//! ```

use std::sync::Arc;

use exrec::algo::{
    Ctx, IndexConfig, KernelConfig, ModelEvidence, Recommender, ScanEngine, ScanMode, UserKnn,
};
use exrec::data::synth::{movies, WorldConfig};
use exrec::types::{ItemId, UserId};

/// FNV-1a-64, fed incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// The digests of one mode: `(rankings, explains)`.
type Pins = (u64, u64);

/// Builds the world the server builds for this shape (its `AppConfig`
/// seed, `0xEC`) and, per mode, digests what a fresh engine-backed
/// user-kNN with the app's defaults answers for 40 users (top-10) and
/// 120 `(user, item)` pairs (prediction plus neighbours).
fn served_digests(n_users: usize, n_items: usize, density: f64) -> [(ScanMode, Pins); 2] {
    let world = movies::generate(&WorldConfig {
        n_users,
        n_items,
        density,
        seed: 0xEC,
        ..WorldConfig::default()
    });
    let ctx = Ctx::new(&world.ratings, &world.catalog);
    let users: Vec<UserId> = (0..n_users)
        .step_by(n_users / 40)
        .map(|u| UserId(u as u32))
        .collect();
    [ScanMode::Pruned, ScanMode::Exact].map(|mode| {
        let engine = Arc::new(ScanEngine::new(
            KernelConfig::default(),
            IndexConfig::default(),
        ));
        let model = UserKnn::default().with_engine(engine, mode);
        let mut rankings = Fnv::new();
        let mut explains = Fnv::new();
        for &user in &users {
            let top = model.recommend(&ctx, user, 10);
            rankings.u64(top.len() as u64);
            for s in &top {
                rankings.u64(u64::from(s.item.raw()));
                rankings.u64(s.prediction.score.to_bits());
            }
            for j in 0..3u32 {
                let item = ItemId((user.raw() * 7 + j * 131) % n_items as u32);
                match model.predict_with_evidence(&ctx, user, item) {
                    Ok((p, ModelEvidence::UserNeighbors { neighbors })) => {
                        explains.u64(p.score.to_bits());
                        explains.u64(p.confidence.value().to_bits());
                        explains.u64(neighbors.len() as u64);
                        for n in &neighbors {
                            explains.u64(u64::from(n.user.raw()));
                            explains.u64(n.similarity.to_bits());
                            explains.u64(n.rating.to_bits());
                        }
                    }
                    Ok((_, other)) => panic!("user-kNN evidence expected, got {}", other.kind()),
                    Err(e) => explains.bytes(e.to_string().as_bytes()),
                }
            }
        }
        (mode, (rankings.0, explains.0))
    })
}

fn assert_pins(n_users: usize, n_items: usize, density: f64, pruned: Pins, exact: Pins) {
    let got = served_digests(n_users, n_items, density);
    assert_eq!(
        got,
        [(ScanMode::Pruned, pruned), (ScanMode::Exact, exact)],
        "{n_users} x {n_items} @ {density}: [(mode, (rankings, explains))]"
    );
}

/// The `AppConfig` default world: 2,000 users x 300 items at 0.05. The
/// overlap pass's budget (2,048 users) covers every user here, so
/// pruned mode answers exactly what exact mode does.
#[test]
fn default_world_answers_are_unchanged() {
    assert_pins(
        2_000,
        300,
        0.05,
        (0xb195_67bd_ec5f_d98b, 0xf1a7_2db9_3775_8921),
        (0xb195_67bd_ec5f_d98b, 0xf1a7_2db9_3775_8921),
    );
}

/// perfbench's `mixed_10k` world: 10,000 users x 400 items at 0.05.
#[test]
fn mixed_10k_answers_are_unchanged() {
    assert_pins(
        10_000,
        400,
        0.05,
        (0xe417_d8f6_712d_836f, 0x17b4_32ca_c2ba_1fcc),
        (0x57fb_fbaf_bf32_f76e, 0x2ad5_9156_bd58_7b24),
    );
}

/// perfbench's `rank_30k` world: 30,000 users x 500 items at 0.1.
#[test]
#[ignore = "seconds in a debug build; run with --release -- --ignored"]
fn rank_30k_answers_are_unchanged() {
    assert_pins(
        30_000,
        500,
        0.1,
        (0xae3e_9367_65c6_16ed, 0x5e8d_b1f0_4fd8_276d),
        (0x4f1d_f77e_e489_e698, 0x540e_8eec_b2ed_674f),
    );
}
