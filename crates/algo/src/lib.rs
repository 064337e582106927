//! # exrec-algo
//!
//! Recommender substrates for the `exrec` toolkit. The survey
//! (Tintarev & Masthoff, ICDE'07) classifies explanation *content* as
//! collaborative-based, content-based or preference-based, independent of
//! the algorithm; this crate supplies one or more algorithms behind each
//! content type:
//!
//! * **collaborative** — user-based and item-based k-nearest-neighbour CF
//!   ([`UserKnn`], [`ItemKnn`]);
//! * **content** — TF-IDF/Rocchio profiles ([`content::TfIdfModel`]) and a
//!   LIBRA-style naive-Bayes model with per-feature and per-rated-item
//!   influence ([`content::NaiveBayesModel`]);
//! * **preference/knowledge** — multi-attribute utility scoring over
//!   explicit requirements ([`knowledge::Maut`]);
//! * plus association-rule mining for dynamic compound critiques
//!   ([`assoc`]), hybrids, baselines and evaluation metrics.
//!
//! Any model can be wrapped in an [`InstrumentedRecommender`] to count
//! and time its calls against an `exrec-obs` metrics registry.
//!
//! Every model can return typed [`ModelEvidence`] for a `(user, item)`
//! pair — the raw material the explanation engine (`exrec-core`) renders
//! into the survey's explanation interfaces.
//!
//! ## Serving at scale
//!
//! [`batch`] turns the one-user-at-a-time substrates into a batch
//! serving path (see `docs/architecture.md` for the request
//! lifecycle): [`batch::BatchPool`] is a thread pool whose workers
//! claim request chunks from one shared atomic cursor; results are bit-identical to the sequential per-user loop under any
//! thread count.
//!
//! ## Sub-linear neighbour search
//!
//! Two further modules replace the brute-force per-pair similarity
//! scan with a kernel that is fast when exact and sub-linear when
//! allowed to prune (see `docs/kernels.md`):
//!
//! * [`kernel`] — a cache-blocked tiled similarity scan that reads
//!   the served ratings matrix in one pass, a startup autotuner, and
//!   [`kernel::ScanEngine`], the shared holder of the tuned tile and
//!   the candidate index;
//! * [`index`] — [`index::CandidateIndex`], deterministic coarse
//!   k-means over rating rows; pruned scans probe the nearest
//!   centroids and score only their members, with automatic exact
//!   fallback when the candidate set is too small for `k`.
//!
//! Attach with [`UserKnn::with_engine`]: [`kernel::ScanMode::Exact`]
//! is bit-identical to the brute path, [`kernel::ScanMode::Pruned`]
//! trades a property-tested recall ≥ 0.99 for sub-linear scans.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod assoc;
pub mod baseline;
pub mod batch;
pub mod content;
pub mod hybrid;
pub mod index;
pub mod instrument;
pub mod item_knn;
pub mod kernel;
pub mod knowledge;
pub mod metrics;
pub mod mf;
pub mod neighbors;
pub mod recommender;
pub mod similarity;
pub mod user_knn;

pub use batch::BatchPool;
pub use index::{CandidateIndex, IndexConfig};
pub use instrument::InstrumentedRecommender;
pub use item_knn::ItemKnn;
pub use kernel::{KernelConfig, ScanEngine, ScanMode, ScanStats, TileSize};
pub use recommender::{Ctx, ModelEvidence, Recommender, Scored};
pub use similarity::Similarity;
pub use user_knn::UserKnn;
