//! # exrec-data
//!
//! Data substrate for the `exrec` toolkit: sparse ratings matrices, item
//! catalogs, lightweight text processing, train/test splitting, binary
//! snapshots, and — because the survey's evidence base is proprietary
//! deployments (TiVo, Amazon, MovieLens) — *synthetic world generators*
//! with latent-factor ground truth for every domain the survey touches:
//! movies, news, books, digital cameras, restaurants and holidays.
//!
//! Ground truth matters: effectiveness (survey Section 3.5) is measured as
//! the gap between a user's pre-consumption estimate and their true
//! post-consumption liking, which only a generative world model can
//! provide.
//!
//! The [`RatingsMatrix`] additionally carries a monotone *revision
//! counter* ([`RatingsMatrix::revision`]) bumped by every successful
//! mutation. Derived state — most prominently the scan engine's
//! candidate index in `exrec-algo` — keys itself to it, which makes
//! invalidation lazy, exact, and free when nothing changed. The counter
//! is deliberately excluded from equality: two matrices with the same
//! content compare equal regardless of their edit histories. Clones
//! share one copy-on-write store, so handing a reader a matrix handle
//! costs `O(1)`.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod catalog;
pub mod csv;
pub mod live;
pub mod matrix;
pub mod snapshot;
pub mod split;
pub mod synth;
pub mod text;
pub mod wal;

pub use catalog::Catalog;
pub use live::{ApplyOutcome, MutableWorld, RatingDelta};
pub use matrix::RatingsMatrix;
pub use synth::{LatentModel, World, WorldConfig};
pub use wal::{FsyncPolicy, Wal, WalOp, WalRecord};
