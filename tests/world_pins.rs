//! The served worlds, pinned bit for bit.
//!
//! Every study number, the committed `quality_report.json` and every
//! served answer depend on the sampled ratings, so world generation may
//! get faster but must not change a bit. Each test digests the snapshot
//! encoding of one served world with FNV-1a-64 and compares it with the
//! digest the linear-scan sampler produced, the loop that
//! `crates/data/tests/world_oracle.rs` keeps as its oracle.
//!
//! The 30k world takes seconds to generate in a debug build, so it is
//! `#[ignore]`d here and runs in release mode:
//!
//! ```sh
//! cargo test --release --test world_pins -- --ignored
//! ```

use exrec::data::snapshot;
use exrec::data::synth::{movies, WorldConfig};

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Generates the world the server builds for this shape (its
/// `AppConfig` seed, `0xEC`, and `WorldConfig` defaults otherwise) and
/// checks the rating count and the digest of its snapshot encoding.
fn assert_world(n_users: usize, n_items: usize, density: f64, n_ratings: usize, digest: u64) {
    let world = movies::generate(&WorldConfig {
        n_users,
        n_items,
        density,
        seed: 0xEC,
        ..WorldConfig::default()
    });
    assert_eq!(world.ratings.n_ratings(), n_ratings);
    assert_eq!(world.ratings.revision(), n_ratings as u64);
    let got = fnv1a64(&snapshot::encode(&world.ratings));
    assert_eq!(
        got, digest,
        "{n_users} x {n_items} @ {density}: digest {got:#018x}, pinned {digest:#018x}"
    );
}

/// The `AppConfig` default world: 2,000 users x 300 items at 0.05.
#[test]
fn default_served_world_is_unchanged() {
    assert_world(2_000, 300, 0.05, 30_000, 0xa786_adf2_114a_ec10);
}

/// perfbench's `mixed_10k` world: 10,000 users x 400 items at 0.05.
#[test]
fn mixed_10k_world_is_unchanged() {
    assert_world(10_000, 400, 0.05, 200_000, 0xcd78_5b2c_3095_b077);
}

/// perfbench's `rank_30k` world: 30,000 users x 500 items at 0.1.
#[test]
#[ignore = "seconds in a debug build; run with --release -- --ignored"]
fn rank_30k_world_is_unchanged() {
    assert_world(30_000, 500, 0.1, 1_500_000, 0x8676_a877_051e_9939);
}
