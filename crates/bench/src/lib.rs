//! # exrec-bench
//!
//! Benchmark harness and reproduction driver. The `repro` binary
//! regenerates every table and figure of the reproduced survey plus all
//! Section 3 studies; the Criterion benches under `benches/` measure the
//! toolkit's moving parts (one bench group per experiment artifact, plus
//! performance benches for the algorithms).
//!
//! Small, shared workload builders live here so the binary and the
//! benches agree on what they measure.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod doccheck;

use exrec_core::influence::loo_influences;
use exrec_core::render::{PlainRenderer, Render};
use exrec_data::synth::{movies, news, WorldConfig};
use exrec_data::World;
use exrec_present::treemap::{layout, Layout, Rect, Treemap, TreemapNode};
use exrec_types::Result;

/// Standard benchmark movie world.
pub fn bench_movie_world() -> World {
    movies::generate(&WorldConfig {
        n_users: 100,
        n_items: 80,
        density: 0.2,
        seed: 0xBE,
        ..WorldConfig::default()
    })
}

/// The Figure 2 news treemap: topic → colour group, popularity → area,
/// recency → shade.
pub fn figure2_treemap(world: &World) -> Treemap {
    let nodes: Vec<TreemapNode> = world
        .catalog
        .iter()
        .map(|it| TreemapNode {
            label: it.title.clone(),
            weight: it.attrs.num("popularity").unwrap_or(1.0).max(1.0),
            group: world.prototypes[it.id.index()],
            shade: it.attrs.num("recency").unwrap_or(50.0) / 100.0,
        })
        .collect();
    layout(nodes, Rect::UNIT, Layout::Squarified)
}

/// Builds the news world used by Figure 2.
pub fn figure2_world() -> World {
    news::generate(&WorldConfig {
        n_users: 30,
        n_items: 40,
        density: 0.2,
        seed: 0xF2,
        ..WorldConfig::default()
    })
}

/// The Figure 3 reproduction: LIBRA-style influence list rendered as
/// text, via the registry's live emulation.
///
/// # Errors
///
/// Propagates the emulation's errors.
pub fn figure3_text(seed: u64) -> Result<String> {
    exrec_registry::live::run("libra", seed)
}

/// The Figure 1 reproduction: SASY scrutable profile transcript.
///
/// # Errors
///
/// Propagates the emulation's errors.
pub fn figure1_text(seed: u64) -> Result<String> {
    exrec_registry::live::run("sasy", seed)
}

/// A generic leave-one-out influence workload over the bench world
/// (exercises the algorithm-agnostic Figure 3 path).
///
/// # Errors
///
/// Propagates prediction errors.
pub fn loo_influence_workload(world: &World) -> Result<usize> {
    use exrec_algo::{Ctx, Recommender, UserKnn};
    let knn = UserKnn::default();
    let ctx = Ctx::new(&world.ratings, &world.catalog);
    for u in world.ratings.users() {
        if world.ratings.user_ratings(u).len() < 5 {
            continue;
        }
        for i in world.catalog.ids() {
            if world.ratings.rating(u, i).is_none() && knn.predict(&ctx, u, i).is_ok() {
                let infl = loo_influences(&knn, &world.ratings, &world.catalog, u, i)?;
                return Ok(infl.len());
            }
        }
    }
    Ok(0)
}

/// Renders an explanation for benchmarking the full explain pipeline.
pub fn render_explanation(explanation: &exrec_core::explanation::Explanation) -> String {
    PlainRenderer.render(explanation)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_layout_covers_unit_square() {
        let world = figure2_world();
        let t = figure2_treemap(&world);
        assert_eq!(t.cells.len(), world.catalog.len());
        let area: f64 = t.cells.iter().map(|(_, r)| r.area()).sum();
        assert!((area - 1.0).abs() < 1e-6);
    }

    #[test]
    fn figure_texts_generate() {
        assert!(figure1_text(1).unwrap().contains("SASY"));
        assert!(figure3_text(1).unwrap().contains("influenced"));
    }

    #[test]
    fn loo_workload_runs() {
        let world = bench_movie_world();
        let n = loo_influence_workload(&world).unwrap();
        assert!(n > 0, "expected at least one influence");
    }
}
