//! Parallel batch serving over a shared chunk cursor.
//!
//! Every recommender in this crate scores one user per call; production
//! traffic and the evaluation harness both arrive in *batches* (score
//! these 10k users, rank for every study participant). This module adds
//! the parallel path:
//!
//! * [`parallel_map`] — the core primitive: a fixed pool of
//!   `std::thread` workers claiming index chunks from one shared atomic
//!   cursor, so fast workers take the chunks slow workers have not
//!   claimed yet (dynamic load balancing without per-item locking);
//! * [`BatchPool`] — a configured, optionally telemetry-instrumented
//!   handle exposing [`BatchPool::recommend_batch`] over any
//!   `Recommender + Sync`; the sequential per-user
//!   [`Recommender::recommend`] loop is the reference it must match
//!   bit-for-bit.
//!
//! **Determinism.** Workers only decide *when* each user is scored,
//! never *how*: results land in their input slot and each user's
//! computation reads the shared immutable [`Ctx`]. Output is therefore
//! identical across 1/4/8 threads and to the sequential path — asserted
//! by `crates/algo/tests/batch.rs`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use exrec_obs::Telemetry;
use exrec_types::UserId;

use crate::recommender::{Ctx, Recommender, Scored};

/// The number of worker threads [`BatchConfig::threads`]` == 0` resolves
/// to: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Applies `f` to every item on a temporary worker pool, returning the
/// results **in input order**.
///
/// Work is distributed as index chunks: each worker repeatedly claims
/// the next unclaimed chunk from one atomic cursor, so a chunk that
/// turns out expensive delays only its claimant. With `threads <= 1`
/// (or one item) this degrades to a plain sequential map with no pool.
///
/// If the calling thread has an active profiling context
/// ([`exrec_obs::profile::current`]) it is installed in every worker,
/// so phase guards opened inside `f` nest under the submitting
/// request's phase.
///
/// `f` receives `(index, &item)`; results are placed by index, so output
/// order never depends on scheduling.
pub fn parallel_map<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    // ~4 chunks per worker balances claim overhead against skew.
    let chunk = items.len().div_ceil(threads * 4).max(1);
    let cursor = AtomicUsize::new(0);
    let profile_ctx = exrec_obs::profile::current();
    let collected: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (cursor, collected, f) = (&cursor, &collected, &f);
            let profile_ctx = profile_ctx.clone();
            scope.spawn(move || {
                let _profile = profile_ctx.map(exrec_obs::profile::install);
                let mut local: Vec<(usize, U)> = Vec::new();
                loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= items.len() {
                        break;
                    }
                    let end = (start + chunk).min(items.len());
                    let claimed = (start..end).zip(&items[start..end]);
                    local.extend(claimed.map(|(i, item)| (i, f(i, item))));
                }
                collected
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .extend(local);
            });
        }
    });

    let mut slots: Vec<Option<U>> = items.iter().map(|_| None).collect();
    for (i, value) in collected.into_inner().unwrap_or_else(|p| p.into_inner()) {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index produced exactly one result"))
        .collect()
}

/// Configuration for a [`BatchPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchConfig {
    /// Worker threads; `0` resolves to [`default_threads`].
    pub threads: usize,
}

/// A handle for running batches of recommendation requests across a
/// worker pool, optionally recording batch telemetry.
///
/// ```
/// use exrec_algo::baseline::Popularity;
/// use exrec_algo::batch::BatchPool;
/// use exrec_algo::{Ctx, Recommender};
/// use exrec_data::synth::{movies, WorldConfig};
/// use exrec_types::UserId;
///
/// let world = movies::generate(&WorldConfig::default());
/// let ctx = Ctx::new(&world.ratings, &world.catalog);
/// let model = Popularity::default();
/// let users: Vec<UserId> = world.ratings.users().take(16).collect();
///
/// let pool = BatchPool::new(4);
/// let parallel = pool.recommend_batch(&model, &ctx, &users, 5);
/// let sequential: Vec<_> = users.iter().map(|&u| model.recommend(&ctx, u, 5)).collect();
/// assert_eq!(parallel, sequential);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BatchPool {
    config: BatchConfig,
    telemetry: Option<Telemetry>,
}

impl BatchPool {
    /// A pool with `threads` workers (`0` = available parallelism).
    pub fn new(threads: usize) -> Self {
        BatchPool {
            config: BatchConfig { threads },
            telemetry: None,
        }
    }

    /// Attaches a telemetry handle. Each batch then records its size
    /// (`batch.requests`), count (`batch.batches`) and wall-clock
    /// (`batch.recommend_ns` / `batch.explain_ns` in `exrec-core`).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        if self.config.threads == 0 {
            default_threads()
        } else {
            self.config.threads
        }
    }

    /// The attached telemetry, if any.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// Runs `f` over `items` on this pool, in input order, recording
    /// batch telemetry under `batch.<label>*` when attached.
    pub fn run<T, U, F>(&self, label: &str, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        // An empty batch does no work; skip the pool and keep the
        // batch.* series free of zero-sized entries.
        if items.is_empty() {
            return Vec::new();
        }
        let started = Instant::now();
        let out = parallel_map(self.threads(), items, f);
        if let Some(t) = &self.telemetry {
            let m = t.metrics();
            m.counter("batch.batches").incr();
            m.counter("batch.requests").add(items.len() as u64);
            m.gauge("batch.threads").set(self.threads() as f64);
            m.histogram(&format!("batch.{label}_ns"))
                .record(started.elapsed());
        }
        out
    }

    /// Ranks top-`n` recommendations for every user in the batch, in
    /// input order, bit-identical to calling
    /// [`Recommender::recommend`] per user sequentially.
    pub fn recommend_batch<R>(
        &self,
        model: &R,
        ctx: &Ctx<'_>,
        users: &[UserId],
        n: usize,
    ) -> Vec<Vec<Scored>>
    where
        R: Recommender + Sync + ?Sized,
    {
        self.run("recommend", users, |_, &user| model.recommend(ctx, user, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::Popularity;
    use exrec_data::synth::{movies, WorldConfig};

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..1_000).collect();
        for threads in [1, 2, 4, 8] {
            let out = parallel_map(threads, &items, |i, &x| {
                assert_eq!(i as u64, x);
                x * 3
            });
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_handles_edge_sizes() {
        let empty: Vec<u8> = vec![];
        assert!(parallel_map(8, &empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(8, &[42u8], |_, &x| x), vec![42]);
    }

    #[test]
    fn empty_batch_short_circuits_without_pool_or_telemetry() {
        // `parallel_map` must not spawn (or even size) a pool for zero
        // items, regardless of the requested thread count.
        let empty: Vec<u64> = vec![];
        assert!(parallel_map(usize::MAX, &empty, |_, &x| x).is_empty());

        // `BatchPool::run` returns immediately and records nothing, so
        // empty batches never skew the batch.* series.
        let obs = Telemetry::default();
        let pool = BatchPool::new(4).with_telemetry(obs.clone());
        let out: Vec<u64> = pool.run("recommend", &empty, |_, &x| x);
        assert!(out.is_empty());
        let report = obs.report();
        assert!(!report.counters.contains_key("batch.batches"));
        assert!(!report.histograms.contains_key("batch.recommend_ns"));

        // `BatchPool::recommend_batch` short-circuits the same way.
        let world = movies::generate(&WorldConfig {
            n_users: 5,
            n_items: 5,
            density: 0.5,
            ..WorldConfig::default()
        });
        let ctx = Ctx::new(&world.ratings, &world.catalog);
        let model = Popularity::default();
        assert!(pool.recommend_batch(&model, &ctx, &[], 4).is_empty());
    }

    #[test]
    fn pool_matches_sequential_and_records_telemetry() {
        let world = movies::generate(&WorldConfig {
            n_users: 30,
            n_items: 30,
            density: 0.3,
            ..WorldConfig::default()
        });
        let ctx = Ctx::new(&world.ratings, &world.catalog);
        let model = Popularity::default();
        let users: Vec<UserId> = world.ratings.users().collect();

        let obs = Telemetry::default();
        let pool = BatchPool::new(3).with_telemetry(obs.clone());
        assert_eq!(pool.threads(), 3);
        let parallel = pool.recommend_batch(&model, &ctx, &users, 4);
        let sequential: Vec<_> = users.iter().map(|&u| model.recommend(&ctx, u, 4)).collect();
        assert_eq!(parallel, sequential);

        let report = obs.report();
        assert_eq!(report.counters["batch.batches"], 1);
        assert_eq!(report.counters["batch.requests"], users.len() as u64);
        assert_eq!(report.histograms["batch.recommend_ns"].count, 1);
        assert_eq!(report.gauges["batch.threads"], 3.0);
    }
}
