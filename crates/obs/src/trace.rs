//! Request-scoped distributed tracing: trace contexts, propagation and
//! tail-based sampling.
//!
//! A [`TraceContext`] names one span's position in a request tree: a
//! 128-bit trace id shared by every span of the request, a 64-bit span
//! id, and the parent span's id (`None` at the root). Ids come from a
//! seedable SplitMix64 [`IdSource`], so tests that fix the seed see the
//! same ids run after run.
//!
//! Propagation is a thread-local context stack: the serving edge opens
//! a root span ([`crate::Telemetry::root_span`]), every span opened
//! beneath it ([`crate::Telemetry::span`] / [`crate::span!`]) becomes a
//! child of the innermost active span, and crossing a thread boundary
//! is explicit — capture [`current`] on the submitting thread,
//! [`install`] it on the worker (the batch pool in `exrec-algo` does
//! this for every worker closure). Code that never opens a root span
//! pays one thread-local read per span and emits untraced events,
//! exactly as before.
//!
//! Tail-based sampling ([`TailSamplingSubscriber`]) buffers each
//! in-flight trace in a bounded, lock-striped ring and decides whether
//! to keep it only once the *root* span finishes — when the request
//! turns out slow, errored, or head-sampled at rate 1/N. Everything
//! else is dropped wholesale, so the subscriber behind it sees complete
//! traces for the interesting requests and nothing for the boring ones.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::metrics::{Counter, Metrics};
use crate::span::{SpanEvent, Subscriber};

/// The instant the process' monotonic span clock was first read; every
/// `start_offset_ns` is measured from here.
static PROCESS_START: OnceLock<Instant> = OnceLock::new();

/// The zero point of span `start_offset_ns` values (lazily initialised
/// on first use; call early in `main` to anchor it at process start).
pub fn process_start() -> Instant {
    *PROCESS_START.get_or_init(Instant::now)
}

/// Nanoseconds between the process zero point and `instant`.
/// Saturates to 0 for instants before the zero point.
pub fn offset_ns_of(instant: Instant) -> u64 {
    instant
        .saturating_duration_since(process_start())
        .as_nanos()
        .min(u128::from(u64::MAX)) as u64
}

/// Nanoseconds since the process zero point, now.
pub fn process_offset_ns() -> u64 {
    offset_ns_of(Instant::now())
}

/// SplitMix64 finalizer; cheap and well distributed.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seedable source of span and trace ids: a SplitMix64 stream over an
/// atomic counter, so ids are unique across threads and deterministic
/// for a fixed seed.
#[derive(Debug)]
pub struct IdSource {
    seed: u64,
    next: AtomicU64,
}

impl Default for IdSource {
    /// An entropy-seeded source (wall clock ⊕ allocation address).
    fn default() -> Self {
        let clock = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let addr = {
            let probe = 0u8;
            std::ptr::addr_of!(probe) as u64
        };
        IdSource::seeded(clock ^ addr.rotate_left(32))
    }
}

impl IdSource {
    /// A source producing the same id stream for the same seed.
    pub fn seeded(seed: u64) -> Self {
        IdSource {
            seed,
            next: AtomicU64::new(0),
        }
    }

    /// The next non-zero 64-bit id.
    pub fn next_id(&self) -> u64 {
        loop {
            let n = self.next.fetch_add(1, Ordering::Relaxed);
            let id = splitmix64(self.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            if id != 0 {
                return id;
            }
        }
    }

    /// The next 128-bit trace id (two draws from the stream).
    pub fn next_trace_id(&self) -> u128 {
        (u128::from(self.next_id()) << 64) | u128::from(self.next_id())
    }
}

/// Formats a 128-bit trace id as 32 lower-case hex characters (the
/// W3C `traceparent` convention, and what `x-exrec-trace-id` carries).
pub fn trace_id_hex(id: u128) -> String {
    format!("{id:032x}")
}

/// Formats a 64-bit span id as 16 lower-case hex characters.
pub fn span_id_hex(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses a 32-hex-char trace id back to its 128-bit value.
pub fn parse_trace_id(hex: &str) -> Option<u128> {
    (hex.len() == 32).then(|| u128::from_str_radix(hex, 16).ok())?
}

/// One span's position in a request's trace tree, plus the id source
/// new child spans draw from. Cloning shares the source.
#[derive(Debug, Clone)]
pub struct TraceContext {
    /// The 128-bit id every span of the request shares.
    pub trace_id: u128,
    /// This span's id.
    pub span_id: u64,
    /// The parent span's id; `None` at the root.
    pub parent_id: Option<u64>,
    ids: Arc<IdSource>,
}

impl TraceContext {
    /// A fresh root context: new trace id, new span id, no parent.
    pub fn root(ids: &Arc<IdSource>) -> Self {
        TraceContext {
            trace_id: ids.next_trace_id(),
            span_id: ids.next_id(),
            parent_id: None,
            ids: Arc::clone(ids),
        }
    }

    /// A child context: same trace, fresh span id, parented on `self`.
    pub fn child(&self) -> Self {
        TraceContext {
            trace_id: self.trace_id,
            span_id: self.ids.next_id(),
            parent_id: Some(self.span_id),
            ids: Arc::clone(&self.ids),
        }
    }

    /// The trace id as 32 hex chars.
    pub fn trace_id_hex(&self) -> String {
        trace_id_hex(self.trace_id)
    }
}

thread_local! {
    /// The active context stack of this thread; the top is the span new
    /// children parent onto.
    static CURRENT: RefCell<Vec<TraceContext>> = const { RefCell::new(Vec::new()) };
}

/// The innermost active [`TraceContext`] on this thread, if any.
pub fn current() -> Option<TraceContext> {
    CURRENT.with(|stack| stack.borrow().last().cloned())
}

/// RAII guard returned by [`install`]; pops the installed context when
/// dropped. Not `Send` — a context belongs to the thread it was
/// installed on.
#[derive(Debug)]
pub struct ContextGuard {
    span_id: u64,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        pop(self.span_id);
    }
}

/// Installs `ctx` as this thread's innermost context until the guard
/// drops. This is the cross-thread propagation primitive: capture
/// [`current`] where work is submitted, `install` it in the worker.
pub fn install(ctx: TraceContext) -> ContextGuard {
    let span_id = ctx.span_id;
    CURRENT.with(|stack| stack.borrow_mut().push(ctx));
    ContextGuard {
        span_id,
        _not_send: std::marker::PhantomData,
    }
}

/// Pushes a context (span open). Internal: the span module drives this.
pub(crate) fn push(ctx: TraceContext) {
    CURRENT.with(|stack| stack.borrow_mut().push(ctx));
}

/// Pops the entry for `span_id` (span close). Tolerates out-of-order
/// drops by removing the topmost matching entry.
pub(crate) fn pop(span_id: u64) {
    CURRENT.with(|stack| {
        let mut stack = stack.borrow_mut();
        if let Some(i) = stack.iter().rposition(|c| c.span_id == span_id) {
            stack.remove(i);
        }
    });
}

/// Tuning of the tail sampler.
#[derive(Debug, Clone, Copy)]
pub struct TailConfig {
    /// Traces whose root span takes at least this long are flushed.
    pub slow_threshold_ns: u64,
    /// Head sampling: flush every trace whose id ≡ 0 (mod N). `0`
    /// disables head sampling (only slow/errored traces survive).
    pub head_sample_every: u64,
    /// Most in-flight traces buffered at once (across all stripes);
    /// admitting one more evicts the oldest in its stripe.
    pub max_traces: usize,
    /// Most spans buffered per trace; extras are counted and dropped.
    pub max_spans_per_trace: usize,
    /// Lock stripes the in-flight buffer is split across.
    pub stripes: usize,
}

impl Default for TailConfig {
    fn default() -> Self {
        TailConfig {
            slow_threshold_ns: 500_000_000, // 500ms
            head_sample_every: 0,
            max_traces: 1024,
            max_spans_per_trace: 512,
            stripes: 16,
        }
    }
}

/// One stripe of the in-flight ring: traces keyed by hex trace id,
/// plus arrival order for bounded eviction.
#[derive(Default)]
struct Stripe {
    traces: HashMap<String, Vec<SpanEvent>>,
    order: VecDeque<String>,
}

/// Buffers in-flight traces and forwards only the interesting ones.
///
/// Spans with no trace context pass straight through to the inner
/// subscriber (they belong to no request). Traced spans are buffered
/// per trace until the root span finishes; the whole trace is then
/// either flushed to the inner subscriber (buffered spans in arrival
/// order, root last) or dropped.
///
/// A trace is flushed when its root is **slow** (`slow_threshold_ns`),
/// **errored** (any root field named `error`), or **head-sampled**
/// (trace id ≡ 0 mod `head_sample_every`).
pub struct TailSamplingSubscriber {
    inner: Arc<dyn Subscriber>,
    config: TailConfig,
    stripes: Vec<Mutex<Stripe>>,
    counters: Option<TailCounters>,
}

/// Pre-registered counters describing the sampler's decisions.
struct TailCounters {
    flushed: Counter,
    dropped: Counter,
    evicted: Counter,
    span_overflow: Counter,
}

impl TailSamplingSubscriber {
    /// Wraps `inner` with tail sampling under `config`.
    pub fn new(inner: Arc<dyn Subscriber>, config: TailConfig) -> Self {
        let stripes = config.stripes.max(1);
        TailSamplingSubscriber {
            inner,
            config,
            stripes: (0..stripes)
                .map(|_| Mutex::new(Stripe::default()))
                .collect(),
            counters: None,
        }
    }

    /// Registers decision counters (`trace.flushed`, `trace.dropped`,
    /// `trace.evicted`, `trace.span_overflow`) in `metrics`.
    pub fn with_metrics(mut self, metrics: &Metrics) -> Self {
        self.counters = Some(TailCounters {
            flushed: metrics.counter("trace.flushed"),
            dropped: metrics.counter("trace.dropped"),
            evicted: metrics.counter("trace.evicted"),
            span_overflow: metrics.counter("trace.span_overflow"),
        });
        self
    }

    /// Per-stripe trace budget.
    fn stripe_budget(&self) -> usize {
        (self.config.max_traces / self.stripes.len()).max(1)
    }

    /// The stripe a trace id hashes into.
    fn stripe_of(&self, trace_hex: &str) -> &Mutex<Stripe> {
        // The low 64 bits of the trace id are SplitMix64 output —
        // already uniform, no re-hash needed.
        let low = trace_hex
            .get(16..32)
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .unwrap_or(0);
        &self.stripes[(low % self.stripes.len() as u64) as usize]
    }

    /// Whether a finished root span earns its trace a flush.
    fn keep(&self, root: &SpanEvent) -> bool {
        if root.elapsed_ns >= self.config.slow_threshold_ns {
            return true;
        }
        if root.fields.iter().any(|(k, _)| k == "error") {
            return true;
        }
        if self.config.head_sample_every > 0 {
            if let Some(id) = root.trace_id.as_deref().and_then(parse_trace_id) {
                return (id as u64).is_multiple_of(self.config.head_sample_every);
            }
        }
        false
    }
}

impl Subscriber for TailSamplingSubscriber {
    fn on_span(&self, event: &SpanEvent) {
        let Some(trace_hex) = event.trace_id.as_deref() else {
            // Untraced span: not part of any request, pass through.
            self.inner.on_span(event);
            return;
        };

        if event.parent_id.is_none() {
            // Root finished: the whole trace is decided here.
            let buffered = {
                let mut stripe = self
                    .stripe_of(trace_hex)
                    .lock()
                    .unwrap_or_else(|p| p.into_inner());
                stripe.order.retain(|t| t != trace_hex);
                stripe.traces.remove(trace_hex).unwrap_or_default()
            };
            if self.keep(event) {
                if let Some(c) = &self.counters {
                    c.flushed.incr();
                }
                for span in &buffered {
                    self.inner.on_span(span);
                }
                self.inner.on_span(event);
            } else if let Some(c) = &self.counters {
                c.dropped.incr();
            }
            return;
        }

        // Interior span: buffer it under its trace.
        let budget = self.stripe_budget();
        let mut stripe = self
            .stripe_of(trace_hex)
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        if !stripe.traces.contains_key(trace_hex) {
            if stripe.traces.len() >= budget {
                // Ring behaviour: the oldest in-flight trace is evicted
                // to stay bounded (its root, when it lands, flushes a
                // rootless remainder of nothing).
                if let Some(oldest) = stripe.order.pop_front() {
                    stripe.traces.remove(&oldest);
                    if let Some(c) = &self.counters {
                        c.evicted.incr();
                    }
                }
            }
            stripe.order.push_back(trace_hex.to_owned());
            stripe.traces.insert(trace_hex.to_owned(), Vec::new());
        }
        let spans = stripe
            .traces
            .get_mut(trace_hex)
            .expect("trace entry just ensured");
        if spans.len() < self.config.max_spans_per_trace {
            spans.push(event.clone());
        } else if let Some(c) = &self.counters {
            c.span_overflow.incr();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::CountingSubscriber;

    fn event(name: &str, trace: Option<u128>, span: u64, parent: Option<u64>) -> SpanEvent {
        SpanEvent {
            name: name.to_owned(),
            fields: Vec::new(),
            elapsed_ns: 1_000,
            start_offset_ns: 0,
            trace_id: trace.map(trace_id_hex),
            span_id: Some(span_id_hex(span)),
            parent_id: parent.map(span_id_hex),
        }
    }

    #[test]
    fn id_source_is_deterministic_and_collision_free() {
        let a = IdSource::seeded(42);
        let b = IdSource::seeded(42);
        let ids_a: Vec<u64> = (0..100).map(|_| a.next_id()).collect();
        let ids_b: Vec<u64> = (0..100).map(|_| b.next_id()).collect();
        assert_eq!(ids_a, ids_b, "same seed, same stream");
        let mut dedup = ids_a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids_a.len(), "no collisions in a short run");
        let c = IdSource::seeded(43);
        assert_ne!(c.next_id(), ids_a[0], "different seed, different stream");
    }

    #[test]
    fn trace_ids_format_and_parse() {
        let ids = Arc::new(IdSource::seeded(7));
        let root = TraceContext::root(&ids);
        let hex = root.trace_id_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(parse_trace_id(&hex), Some(root.trace_id));
        assert_eq!(parse_trace_id("nope"), None);
        assert_eq!(span_id_hex(root.span_id).len(), 16);
    }

    #[test]
    fn child_contexts_link_to_their_parent() {
        let ids = Arc::new(IdSource::seeded(1));
        let root = TraceContext::root(&ids);
        assert_eq!(root.parent_id, None);
        let child = root.child();
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.parent_id, Some(root.span_id));
        assert_ne!(child.span_id, root.span_id);
        let grandchild = child.child();
        assert_eq!(grandchild.parent_id, Some(child.span_id));
    }

    #[test]
    fn install_nests_and_restores() {
        assert!(current().is_none());
        let ids = Arc::new(IdSource::seeded(9));
        let outer = TraceContext::root(&ids);
        {
            let _g = install(outer.clone());
            assert_eq!(current().unwrap().span_id, outer.span_id);
            let inner = outer.child();
            {
                let _g2 = install(inner.clone());
                assert_eq!(current().unwrap().span_id, inner.span_id);
            }
            assert_eq!(current().unwrap().span_id, outer.span_id);
        }
        assert!(current().is_none());
    }

    #[test]
    fn tail_sampler_flushes_slow_traces_in_order() {
        let collector = Arc::new(CountingSubscriber::new());
        let tail = TailSamplingSubscriber::new(
            Arc::clone(&collector) as Arc<dyn Subscriber>,
            TailConfig {
                slow_threshold_ns: 500,
                ..TailConfig::default()
            },
        );
        tail.on_span(&event("child_a", Some(1), 2, Some(1)));
        tail.on_span(&event("child_b", Some(1), 3, Some(1)));
        assert!(collector.events().is_empty(), "nothing until the root");
        let mut root = event("root", Some(1), 1, None);
        root.elapsed_ns = 10_000; // above threshold
        tail.on_span(&root);
        let names: Vec<String> = collector.events().iter().map(|e| e.name.clone()).collect();
        assert_eq!(names, vec!["child_a", "child_b", "root"]);
    }

    #[test]
    fn tail_sampler_drops_fast_clean_traces() {
        let collector = Arc::new(CountingSubscriber::new());
        let metrics = Metrics::new();
        let tail = TailSamplingSubscriber::new(
            Arc::clone(&collector) as Arc<dyn Subscriber>,
            TailConfig {
                slow_threshold_ns: 1_000_000,
                ..TailConfig::default()
            },
        )
        .with_metrics(&metrics);
        tail.on_span(&event("child", Some(5), 2, Some(1)));
        tail.on_span(&event("root", Some(5), 1, None)); // fast, clean
        assert!(collector.events().is_empty());
        assert_eq!(metrics.counter("trace.dropped").get(), 1);
        assert_eq!(metrics.counter("trace.flushed").get(), 0);
    }

    #[test]
    fn tail_sampler_keeps_errored_and_head_sampled_roots() {
        let collector = Arc::new(CountingSubscriber::new());
        let tail = TailSamplingSubscriber::new(
            Arc::clone(&collector) as Arc<dyn Subscriber>,
            TailConfig {
                slow_threshold_ns: u64::MAX,
                head_sample_every: 4,
                ..TailConfig::default()
            },
        );
        // Errored root: kept regardless of latency.
        let mut errored = event("root", Some(3), 1, None);
        errored
            .fields
            .push(("error".to_owned(), "panic".to_owned()));
        tail.on_span(&errored);
        assert_eq!(collector.events().len(), 1);
        // Head-sampled root: trace id divisible by 4.
        tail.on_span(&event("root", Some(8), 2, None));
        assert_eq!(collector.events().len(), 2);
        // Neither slow, errored, nor divisible: dropped.
        tail.on_span(&event("root", Some(9), 3, None));
        assert_eq!(collector.events().len(), 2);
    }

    #[test]
    fn tail_sampler_ring_is_bounded() {
        let collector = Arc::new(CountingSubscriber::new());
        let metrics = Metrics::new();
        let tail = TailSamplingSubscriber::new(
            Arc::clone(&collector) as Arc<dyn Subscriber>,
            TailConfig {
                slow_threshold_ns: 0, // flush everything that survives
                max_traces: 2,
                max_spans_per_trace: 2,
                stripes: 1,
                ..TailConfig::default()
            },
        )
        .with_metrics(&metrics);
        // Three in-flight traces into a 2-trace ring: the oldest goes.
        tail.on_span(&event("a", Some(1), 11, Some(10)));
        tail.on_span(&event("b", Some(2), 21, Some(20)));
        tail.on_span(&event("c", Some(3), 31, Some(30)));
        assert_eq!(metrics.counter("trace.evicted").get(), 1);
        // Trace 1 was evicted: its root flushes alone.
        tail.on_span(&event("root1", Some(1), 10, None));
        assert_eq!(
            collector.events().len(),
            1,
            "evicted trace keeps only its root"
        );
        // Per-trace span cap: the third span of trace 2 is dropped.
        tail.on_span(&event("b2", Some(2), 22, Some(20)));
        tail.on_span(&event("b3", Some(2), 23, Some(20)));
        assert_eq!(metrics.counter("trace.span_overflow").get(), 1);
        tail.on_span(&event("root2", Some(2), 20, None));
        let names: Vec<String> = collector.events().iter().map(|e| e.name.clone()).collect();
        assert_eq!(names, vec!["root1", "b", "b2", "root2"]);
    }

    #[test]
    fn untraced_spans_pass_straight_through() {
        let collector = Arc::new(CountingSubscriber::new());
        let tail = TailSamplingSubscriber::new(
            Arc::clone(&collector) as Arc<dyn Subscriber>,
            TailConfig::default(),
        );
        let mut plain = event("library_span", None, 0, None);
        plain.span_id = None;
        plain.parent_id = None;
        tail.on_span(&plain);
        assert_eq!(collector.events().len(), 1);
    }
}
