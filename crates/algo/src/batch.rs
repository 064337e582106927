//! Work-stealing parallel batch serving.
//!
//! Every recommender in this crate scores one user per call; production
//! traffic and the evaluation harness both arrive in *batches* (score
//! these 10k users, rank for every study participant). This module adds
//! the parallel path:
//!
//! * [`parallel_map`] — the core primitive: a fixed pool of
//!   `std::thread` workers pulling index chunks from a shared
//!   crossbeam-style MPMC [`channel`], so fast workers steal the work
//!   slow workers have not claimed (dynamic load balancing without
//!   per-item locking);
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

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use exrec_obs::Telemetry;
use exrec_types::UserId;

use crate::recommender::{Ctx, Recommender, Scored};

/// Shared state of a [`channel`].
struct ChanInner<T> {
    queue: Mutex<VecDeque<T>>,
    ready: Condvar,
    senders: AtomicUsize,
}

/// Sending half of an MPMC channel; cloning adds a producer.
pub struct Sender<T>(Arc<ChanInner<T>>);

/// Receiving half of an MPMC channel; cloning adds a consumer.
pub struct Receiver<T>(Arc<ChanInner<T>>);

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.senders.fetch_add(1, Ordering::Relaxed);
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        Receiver(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.0.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last producer gone: wake every blocked consumer so it can
            // observe disconnection.
            self.0.ready.notify_all();
        }
    }
}

impl<T> Sender<T> {
    /// Enqueues a value; consumers in [`Receiver::recv`] wake in FIFO
    /// claim order.
    pub fn send(&self, value: T) {
        let mut queue = self.0.queue.lock().unwrap_or_else(|p| p.into_inner());
        queue.push_back(value);
        drop(queue);
        self.0.ready.notify_one();
    }
}

impl<T> Receiver<T> {
    /// Dequeues the next value, blocking while the channel is empty.
    /// Returns `None` once the channel is empty *and* every sender is
    /// dropped — the workers' shutdown signal.
    pub fn recv(&self) -> Option<T> {
        let mut queue = self.0.queue.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(value) = queue.pop_front() {
                return Some(value);
            }
            if self.0.senders.load(Ordering::Acquire) == 0 {
                return None;
            }
            queue = self.0.ready.wait(queue).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// An unbounded multi-producer multi-consumer channel (crossbeam-style
/// disconnect semantics: `recv` drains remaining values after the last
/// sender drops, then reports disconnection).
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(ChanInner {
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        senders: AtomicUsize::new(1),
    });
    (Sender(Arc::clone(&inner)), Receiver(inner))
}

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
/// Work is distributed as index chunks through a shared MPMC channel:
/// each worker repeatedly steals the next unclaimed chunk, so a chunk
/// that turns out expensive delays only its thief. With `threads <= 1`
/// (or one item) this degrades to a plain sequential map with no pool.
///
/// If the calling thread has an active trace context it is installed in
/// every worker, so spans opened inside `f` parent onto the span that
/// submitted the batch — a request trace stays one tree across the
/// thread boundary. An active profiling context
/// ([`exrec_obs::profile::current`]) propagates the same way, so phase
/// guards opened inside `f` nest under the submitting request's phase.
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

    // ~4 chunks per worker balances steal overhead against skew.
    let chunk = items.len().div_ceil(threads * 4).max(1);
    let (tx, rx) = channel::<Range<usize>>();
    let mut start = 0;
    while start < items.len() {
        let end = (start + chunk).min(items.len());
        tx.send(start..end);
        start = end;
    }
    drop(tx);

    let trace_ctx = exrec_obs::trace::current();
    let profile_ctx = exrec_obs::profile::current();
    let collected: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let rx = rx.clone();
            let collected = &collected;
            let f = &f;
            let trace_ctx = trace_ctx.clone();
            let profile_ctx = profile_ctx.clone();
            scope.spawn(move || {
                let _trace = trace_ctx.map(exrec_obs::trace::install);
                let _profile = profile_ctx.map(exrec_obs::profile::install);
                let mut local: Vec<(usize, U)> = Vec::new();
                while let Some(range) = rx.recv() {
                    for i in range {
                        local.push((i, f(i, &items[i])));
                    }
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
        // Inside a request trace the batch gets its own span: workers
        // install the context (see `parallel_map`), so their spans hang
        // off this one. Untraced batches skip the span and keep the
        // established batch.* histograms as their only cost.
        let _span = self.telemetry.as_ref().and_then(|t| {
            exrec_obs::trace::current()
                .is_some()
                .then(|| exrec_obs::span!(t, "batch", label = label, requests = items.len()))
        });
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
    fn channel_delivers_everything_then_disconnects() {
        let (tx, rx) = channel::<u32>();
        for i in 0..100 {
            tx.send(i);
        }
        drop(tx);
        let mut got: Vec<u32> = std::iter::from_fn(|| rx.recv()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert_eq!(rx.recv(), None, "disconnected channel stays empty");
    }

    #[test]
    fn channel_is_mpmc() {
        let (tx, rx) = channel::<u64>();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..500 {
                        tx.send(p * 1_000 + i);
                    }
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut sum = 0u64;
                    let mut n = 0u64;
                    while let Some(v) = rx.recv() {
                        sum += v;
                        n += 1;
                    }
                    (sum, n)
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let (mut total, mut count) = (0, 0);
        for c in consumers {
            let (s, n) = c.join().unwrap();
            total += s;
            count += n;
        }
        assert_eq!(count, 2_000, "every message consumed exactly once");
        let expected: u64 = (0..4u64)
            .map(|p| (0..500).map(|i| p * 1_000 + i).sum::<u64>())
            .sum();
        assert_eq!(total, expected);
    }

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
    fn pool_propagates_trace_context_to_workers() {
        use exrec_obs::{trace, CountingSubscriber, IdSource, Subscriber};
        use std::sync::Arc;

        let collector = Arc::new(CountingSubscriber::new());
        let obs = Telemetry::with_subscriber(Arc::clone(&collector) as Arc<dyn Subscriber>);
        let ids = Arc::new(IdSource::seeded(21));
        let pool = BatchPool::new(4).with_telemetry(obs.clone());
        let items: Vec<u64> = (0..64).collect();
        let expected_trace;
        {
            let root = obs.root_span("request", &ids);
            expected_trace = root.trace_id_hex().unwrap();
            let obs_ref = &obs;
            let out = pool.run("recommend", &items, |_, &x| {
                let _span = obs_ref.span("work_item");
                x * 2
            });
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
        assert!(trace::current().is_none());
        let events = collector.events();
        let batch = events.iter().find(|e| e.name == "batch").unwrap();
        assert_eq!(batch.trace_id.as_deref(), Some(expected_trace.as_str()));
        let work: Vec<_> = events.iter().filter(|e| e.name == "work_item").collect();
        assert_eq!(work.len(), items.len());
        for w in &work {
            assert_eq!(
                w.trace_id.as_deref(),
                Some(expected_trace.as_str()),
                "worker spans join the submitting request's trace"
            );
            assert_eq!(
                w.parent_id, batch.span_id,
                "worker spans parent onto the batch span across threads"
            );
        }
        // Untraced batches stay span-free (no trace context, no span).
        let before = collector.events().len();
        pool.run("recommend", &items, |_, &x| x);
        let after: Vec<_> = collector.events().split_off(before);
        assert!(after.iter().all(|e| e.name != "batch"));
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
