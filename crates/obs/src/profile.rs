//! Always-on cooperative phase profiler for the serving hot path.
//!
//! Tail-sampled traces (PR 7) say *which* requests were slow; they do
//! not attribute self-time to phases — was it the similarity scan, the
//! top-k sort, evidence gathering? This module answers that with a
//! profiler cheap enough to leave enabled in production:
//!
//! * **Phases are scoped RAII guards.** [`phase`] opens a named region
//!   on the current thread; dropping the guard attributes the elapsed
//!   time. Nesting guards builds a call tree.
//! * **The tree is keyed by route.** [`Profiler::route`] installs a
//!   per-request context; every phase opened beneath it (on this
//!   thread or, via [`current`]/[`install`], on batch workers) lands
//!   under that route's root in the shared [`Profiler`] tree.
//! * **Aggregation is atomic.** Each tree node keeps call count,
//!   inclusive time and accumulated child time in relaxed atomics;
//!   self-time is derived at snapshot time (`total − children`,
//!   saturating — parallel children can legitimately exceed the
//!   parent's wall clock). The only locks are short read-mostly
//!   `RwLock`s on the children maps, taken on first descent into a
//!   phase.
//! * **When no route is active, [`phase`] is a no-op** — one
//!   thread-local read. Library code can therefore instrument
//!   unconditionally.
//!
//! Two exports: [`Profiler::snapshot`] (a serde tree for
//! `GET /debug/profile`) and [`Profiler::collapsed`] (collapsed-stack
//! text — `route;phase;subphase self_ns` per line — which flamegraph
//! tooling consumes directly).
//!
//! Each request additionally gets a [`PhaseCollector`]: a per-request
//! accumulator of phase path → nanoseconds, which the serving edge
//! copies into the flight recorder so a single request's breakdown
//! survives after the fact.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

/// One node of the hierarchical profile tree. All counters are relaxed
/// atomics; concurrent guards on many threads aggregate without locks.
#[derive(Debug, Default)]
struct PhaseNode {
    calls: AtomicU64,
    total_ns: AtomicU64,
    /// Inclusive time accumulated by direct children (possibly from
    /// parallel workers, so it may exceed `total_ns`).
    child_ns: AtomicU64,
    children: RwLock<BTreeMap<&'static str, Arc<PhaseNode>>>,
}

impl PhaseNode {
    /// The child named `name`, created on first descent.
    fn child(&self, name: &'static str) -> Arc<PhaseNode> {
        if let Some(node) = self
            .children
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .get(name)
        {
            return Arc::clone(node);
        }
        let mut children = self.children.write().unwrap_or_else(|p| p.into_inner());
        Arc::clone(children.entry(name).or_default())
    }

    fn add(&self, elapsed_ns: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
    }

    fn snapshot(&self, name: &str) -> PhaseSnapshot {
        let children: Vec<PhaseSnapshot> = self
            .children
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(child_name, node)| node.snapshot(child_name))
            .collect();
        let total_ns = self.total_ns.load(Ordering::Relaxed);
        let child_ns = self.child_ns.load(Ordering::Relaxed);
        PhaseSnapshot {
            name: name.to_owned(),
            calls: self.calls.load(Ordering::Relaxed),
            total_ns,
            self_ns: total_ns.saturating_sub(child_ns),
            children,
        }
    }
}

/// One node of a profile snapshot: inclusive time, derived self-time
/// and call count, with children nested beneath.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseSnapshot {
    /// Phase name (route name at the root).
    pub name: String,
    /// Times this phase was entered.
    pub calls: u64,
    /// Inclusive nanoseconds across all calls.
    pub total_ns: u64,
    /// `total_ns` minus child inclusive time, saturating at zero
    /// (parallel children can overlap the parent's wall clock).
    pub self_ns: u64,
    /// Nested phases, sorted by name.
    pub children: Vec<PhaseSnapshot>,
}

/// A serializable snapshot of the whole profile tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfileReport {
    /// One tree per route, sorted by route name.
    pub routes: Vec<PhaseSnapshot>,
}

/// Per-request accumulator: phase path → nanoseconds. The serving
/// edge hands one to [`Profiler::route`] and copies the result into
/// the request's flight record.
#[derive(Debug, Default)]
pub struct PhaseCollector {
    phases: Mutex<BTreeMap<String, u64>>,
    /// Sampled quality score, stored as `(score * 1e6) + 1` so the
    /// atomic's zero default means "not sampled".
    quality_micro: AtomicU64,
}

impl PhaseCollector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `elapsed` under `path` (`;`-joined phase names relative to
    /// the route root, e.g. `"handle;scan"`). Repeated paths sum.
    pub fn add(&self, path: &str, elapsed: Duration) {
        let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        let mut phases = self.phases.lock().unwrap_or_else(|p| p.into_inner());
        *phases.entry(path.to_owned()).or_insert(0) += ns;
    }

    /// The accumulated `(path, nanoseconds)` pairs, sorted by path.
    pub fn phases(&self) -> Vec<(String, u64)> {
        self.phases
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(path, &ns)| (path.clone(), ns))
            .collect()
    }

    /// Attributes a probed explanation-quality score in `[0, 1]` to
    /// this request. The last write wins; the serving edge copies it
    /// into the request's flight record.
    pub fn set_quality(&self, score: f64) {
        let micro = (score.clamp(0.0, 1.0) * 1e6) as u64 + 1;
        self.quality_micro.store(micro, Ordering::Relaxed);
    }

    /// The probed quality score, if this request's explanation was
    /// probed.
    pub fn quality(&self) -> Option<f64> {
        match self.quality_micro.load(Ordering::Relaxed) {
            0 => None,
            micro => Some((micro - 1) as f64 / 1e6),
        }
    }
}

/// The profiling context active on a thread: where in the tree new
/// phases attach, and which request collects them. Cloneable so the
/// batch pool can capture it at submit ([`current`]) and [`install`]
/// it in each worker.
#[derive(Clone)]
pub struct ProfileCtx {
    node: Arc<PhaseNode>,
    collector: Arc<PhaseCollector>,
    /// `;`-joined phase path relative to the route root; empty at the
    /// root itself.
    path: Arc<str>,
}

impl std::fmt::Debug for ProfileCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfileCtx")
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

thread_local! {
    static ACTIVE: RefCell<Vec<ProfileCtx>> = const { RefCell::new(Vec::new()) };
}

/// The always-on profile tree, keyed by route.
#[derive(Debug, Default)]
pub struct Profiler {
    routes: RwLock<BTreeMap<String, Arc<PhaseNode>>>,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    fn root(&self, route: &str) -> Arc<PhaseNode> {
        if let Some(node) = self
            .routes
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .get(route)
        {
            return Arc::clone(node);
        }
        let mut routes = self.routes.write().unwrap_or_else(|p| p.into_inner());
        Arc::clone(routes.entry(route.to_owned()).or_default())
    }

    /// Installs `route` as this thread's profiling context until the
    /// guard drops; phases opened beneath attach to the route's tree
    /// and accumulate into `collector`. The guard's own elapsed time
    /// is added to the route root.
    pub fn route(&self, route: &str, collector: Arc<PhaseCollector>) -> RouteGuard {
        let node = self.root(route);
        ACTIVE.with(|stack| {
            stack.borrow_mut().push(ProfileCtx {
                node: Arc::clone(&node),
                collector,
                path: Arc::from(""),
            });
        });
        RouteGuard {
            started: Instant::now(),
            node,
            _not_send: PhantomData,
        }
    }

    /// Attributes an externally-measured duration (e.g. queue wait or
    /// request parsing, which happen before the route is known) as a
    /// direct child of `route`'s root, also growing the root's
    /// inclusive time so route totals approximate full request time.
    pub fn record_external(&self, route: &str, phase: &'static str, elapsed: Duration) {
        let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        let root = self.root(route);
        root.child(phase).add(ns);
        root.child_ns.fetch_add(ns, Ordering::Relaxed);
        root.total_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// A serializable snapshot of every route's tree.
    pub fn snapshot(&self) -> ProfileReport {
        ProfileReport {
            routes: self
                .routes
                .read()
                .unwrap_or_else(|p| p.into_inner())
                .iter()
                .map(|(route, node)| node.snapshot(route))
                .collect(),
        }
    }

    /// Collapsed-stack rendering: one `route;phase;subphase self_ns`
    /// line per tree node with nonzero self-time, the input format of
    /// flamegraph tooling (`flamegraph.pl`, inferno, speedscope).
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for route in self.snapshot().routes {
            collapse_into(&mut out, &route.name, &route);
        }
        out
    }
}

fn collapse_into(out: &mut String, stack: &str, node: &PhaseSnapshot) {
    if node.self_ns > 0 {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&node.self_ns.to_string());
        out.push('\n');
    }
    for child in &node.children {
        let frame = format!("{stack};{}", child.name);
        collapse_into(out, &frame, child);
    }
}

/// RAII guard for an active route context; see [`Profiler::route`].
/// Not `Send` — it must drop on the thread that opened it.
#[derive(Debug)]
pub struct RouteGuard {
    started: Instant,
    node: Arc<PhaseNode>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for RouteGuard {
    fn drop(&mut self) {
        let elapsed = self.started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.node.add(elapsed);
        ACTIVE.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// RAII guard for one phase; see [`phase`]. Not `Send`.
#[derive(Debug)]
pub struct PhaseGuard {
    started: Instant,
    node: Arc<PhaseNode>,
    parent: Arc<PhaseNode>,
    collector: Arc<PhaseCollector>,
    path: Arc<str>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let elapsed = self.started.elapsed();
        let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.node.add(ns);
        self.parent.child_ns.fetch_add(ns, Ordering::Relaxed);
        self.collector.add(&self.path, elapsed);
        ACTIVE.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// Opens phase `name` under the innermost active context. Returns
/// `None` (and does nothing else) when no route is active on this
/// thread — instrumentation in library code costs one thread-local
/// read outside the serving path.
pub fn phase(name: &'static str) -> Option<PhaseGuard> {
    ACTIVE.with(|stack| {
        let parent = stack.borrow().last().cloned()?;
        let node = parent.node.child(name);
        let path: Arc<str> = if parent.path.is_empty() {
            Arc::from(name)
        } else {
            Arc::from(format!("{};{name}", parent.path))
        };
        stack.borrow_mut().push(ProfileCtx {
            node: Arc::clone(&node),
            collector: Arc::clone(&parent.collector),
            path: Arc::clone(&path),
        });
        Some(PhaseGuard {
            started: Instant::now(),
            node,
            parent: parent.node,
            collector: parent.collector,
            path,
            _not_send: PhantomData,
        })
    })
}

/// The innermost active profiling context on this thread, if any — the
/// cross-thread propagation primitive (capture where work is
/// submitted, [`install`] in the worker).
pub fn current() -> Option<ProfileCtx> {
    ACTIVE.with(|stack| stack.borrow().last().cloned())
}

/// Attributes a probed quality score to the current request's
/// collector; a no-op outside an active route.
pub fn quality_sample(score: f64) {
    ACTIVE.with(|stack| {
        if let Some(ctx) = stack.borrow().last() {
            ctx.collector.set_quality(score);
        }
    });
}

/// RAII guard returned by [`install`]; pops the context when dropped.
/// Not `Send` — a context installation belongs to its thread.
#[derive(Debug)]
pub struct InstallGuard {
    _not_send: PhantomData<*const ()>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        ACTIVE.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// Installs `ctx` as this thread's innermost profiling context until
/// the guard drops. Phases opened beneath attach where the captured
/// context pointed (the batch pool uses this so worker phases nest
/// under the submitting request's phase).
pub fn install(ctx: ProfileCtx) -> InstallGuard {
    ACTIVE.with(|stack| stack.borrow_mut().push(ctx));
    InstallGuard {
        _not_send: PhantomData,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find<'a>(report: &'a ProfileReport, route: &str) -> &'a PhaseSnapshot {
        report
            .routes
            .iter()
            .find(|r| r.name == route)
            .expect("route present")
    }

    fn child<'a>(node: &'a PhaseSnapshot, name: &str) -> &'a PhaseSnapshot {
        node.children
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("child {name} under {}", node.name))
    }

    #[test]
    fn phase_without_route_is_noop() {
        assert!(phase("scan").is_none());
        assert!(current().is_none());
        quality_sample(0.5); // must not panic or leak anywhere
    }

    #[test]
    fn nested_phases_build_a_tree_and_collector() {
        let profiler = Profiler::new();
        let collector = Arc::new(PhaseCollector::new());
        {
            let _route = profiler.route("recommend", Arc::clone(&collector));
            let _handle = phase("handle").expect("route active");
            {
                let _scan = phase("scan").unwrap();
                std::thread::sleep(Duration::from_millis(2));
            }
            let _rank = phase("rank").unwrap();
        }
        assert!(current().is_none(), "guards restore the empty stack");

        let report = profiler.snapshot();
        let route = find(&report, "recommend");
        assert_eq!(route.calls, 1);
        let handle = child(route, "handle");
        let scan = child(handle, "scan");
        assert_eq!(scan.calls, 1);
        assert!(scan.total_ns >= 2_000_000, "scan slept 2ms");
        assert!(
            handle.total_ns >= scan.total_ns,
            "parent inclusive covers child"
        );
        assert!(handle.self_ns <= handle.total_ns);
        child(handle, "rank");

        let phases = collector.phases();
        let paths: Vec<&str> = phases.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, vec!["handle", "handle;rank", "handle;scan"]);
    }

    #[test]
    fn repeated_phases_aggregate_calls_and_time() {
        let profiler = Profiler::new();
        let collector = Arc::new(PhaseCollector::new());
        {
            let _route = profiler.route("explain", Arc::clone(&collector));
            for _ in 0..10 {
                let _p = phase("evidence").unwrap();
            }
        }
        let report = profiler.snapshot();
        assert_eq!(child(find(&report, "explain"), "evidence").calls, 10);
        assert_eq!(collector.phases().len(), 1, "same path sums in place");
    }

    #[test]
    fn record_external_attaches_to_route_root() {
        let profiler = Profiler::new();
        profiler.record_external("recommend", "queue_wait", Duration::from_micros(500));
        let report = profiler.snapshot();
        let route = find(&report, "recommend");
        assert_eq!(child(route, "queue_wait").total_ns, 500_000);
        assert_eq!(route.total_ns, 500_000, "root inclusive grows too");
        assert_eq!(route.self_ns, 0, "external time is never root self-time");
    }

    #[test]
    fn contexts_install_across_threads() {
        let profiler = Arc::new(Profiler::new());
        let collector = Arc::new(PhaseCollector::new());
        {
            let _route = profiler.route("recommend", Arc::clone(&collector));
            let _handle = phase("handle").unwrap();
            let ctx = current().expect("context capturable");
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    let ctx = ctx.clone();
                    scope.spawn(move || {
                        let _install = install(ctx);
                        let _scan = phase("scan").unwrap();
                        std::thread::sleep(Duration::from_millis(1));
                    });
                }
            });
        }
        let report = profiler.snapshot();
        let handle = child(find(&report, "recommend"), "handle");
        assert_eq!(
            child(handle, "scan").calls,
            4,
            "worker phases nest under submit point"
        );
        // Every worker's phase lands in the submitting request's
        // collector: four 1 ms sleeps sum to at least 4 ms.
        assert!(
            collector
                .phases()
                .iter()
                .find(|(p, _)| p == "handle;scan")
                .is_some_and(|&(_, ns)| ns >= 4_000_000),
            "worker phases reach the request's collector"
        );
    }

    #[test]
    fn collapsed_stack_format_is_parseable() {
        let profiler = Profiler::new();
        let collector = Arc::new(PhaseCollector::new());
        {
            let _route = profiler.route("recommend", Arc::clone(&collector));
            let _handle = phase("handle").unwrap();
            let _scan = phase("scan").unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        let collapsed = profiler.collapsed();
        assert!(!collapsed.is_empty());
        for line in collapsed.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("`stack count` shape");
            assert!(!stack.is_empty());
            assert!(stack.starts_with("recommend"));
            assert!(count.parse::<u64>().expect("numeric sample value") > 0);
        }
        assert!(
            collapsed
                .lines()
                .any(|l| l.starts_with("recommend;handle;scan ")),
            "nested frames render as semicolon-joined stacks: {collapsed:?}"
        );
    }

    #[test]
    fn profile_report_round_trips_through_json() {
        let profiler = Profiler::new();
        let collector = Arc::new(PhaseCollector::new());
        {
            let _route = profiler.route("healthz", collector);
        }
        let json = serde_json::to_string(&profiler.snapshot()).unwrap();
        let back: ProfileReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.routes.len(), 1);
        assert_eq!(back.routes[0].name, "healthz");
    }
}
