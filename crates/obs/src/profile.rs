//! Always-on cooperative phase profiler for the serving hot path.
//!
//! A request's flight record says how long it took; this module says
//! where the time went — the similarity scan, the top-k sort, evidence
//! gathering — cheaply enough to leave enabled in production:
//!
//! * **Phases are scoped RAII guards.** [`phase`] opens a named region
//!   on the current thread; dropping the guard adds one call and the
//!   elapsed time to the request's [`PhaseCollector`] under the phase's
//!   `;`-joined path. Nesting guards builds the path.
//! * **A request is the unit.** The serving edge [`install`]s a
//!   [`ProfileCtx::new`] per request; every phase opened beneath it (on
//!   this thread or, via [`current`]/[`install`], on batch workers)
//!   lands in that request's collector and nowhere else.
//! * **The tree is the sum of filed requests.** When the edge files a
//!   request, [`Profiler::add`] folds its collector into the shared
//!   per-route tree once: the route root gains one call and the
//!   request's duration, each phase node its calls and nanoseconds.
//!   Self-time is derived at snapshot time (`total − children`,
//!   saturating — parallel children can legitimately exceed the
//!   parent's wall clock).
//! * **When no context is active, [`phase`] is a no-op** — one
//!   thread-local read. Library code can therefore instrument
//!   unconditionally.
//!
//! [`Profiler::snapshot`] is a serde tree for `GET /debug/profile`, and
//! [`ProfileReport::collapsed`] renders the same snapshot as
//! collapsed-stack text — `route;phase;subphase self_ns` per line —
//! which flamegraph tooling consumes directly.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::trace::duration_ns;

/// One node of a profile snapshot: inclusive time, derived self-time
/// and call count, with children nested beneath.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseSnapshot {
    /// Phase name (route name at the root).
    pub name: String,
    /// Times this phase was entered (requests filed, at the root).
    pub calls: u64,
    /// Inclusive nanoseconds across all calls (the filed requests'
    /// durations, at the root).
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

impl ProfileReport {
    /// Collapsed-stack rendering: one `route;phase;subphase self_ns`
    /// line per tree node with nonzero self-time, the input format of
    /// flamegraph tooling (`flamegraph.pl`, inferno, speedscope).
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for route in &self.routes {
            collapse_into(&mut out, &route.name, route);
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

/// Per-request account: phase path → calls and nanoseconds. The serving
/// edge copies the nanoseconds into the request's flight record and
/// folds the whole account into the [`Profiler`].
#[derive(Debug, Default)]
pub struct PhaseCollector {
    /// `;`-joined path → `(calls, nanoseconds)`.
    phases: Mutex<BTreeMap<String, (u64, u64)>>,
    /// Sampled quality score, stored as `(score * 1e6) + 1` so the
    /// atomic's zero default means "not sampled".
    quality_micro: AtomicU64,
}

impl PhaseCollector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one call of `elapsed` under `path` (`;`-joined phase names
    /// relative to the route root, e.g. `"handle;scan"`). Repeated
    /// paths sum.
    pub fn add(&self, path: &str, elapsed: Duration) {
        let ns = duration_ns(elapsed);
        let mut phases = lock!(self.phases.lock());
        match phases.get_mut(path) {
            Some((calls, total)) => {
                *calls += 1;
                *total = total.saturating_add(ns);
            }
            None => {
                phases.insert(path.to_owned(), (1, ns));
            }
        }
    }

    /// The accumulated `(path, nanoseconds)` pairs, sorted by path.
    pub fn phases(&self) -> Vec<(String, u64)> {
        lock!(self.phases.lock())
            .iter()
            .map(|(path, &(_, ns))| (path.clone(), ns))
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

/// The profiling context active on a thread: which request collects
/// new phases, and the path they nest under. Cloneable so the batch
/// pool can capture it at submit ([`current`]) and [`install`] it in
/// each worker.
#[derive(Debug, Clone)]
pub struct ProfileCtx {
    collector: Arc<PhaseCollector>,
    /// `;`-joined phase path relative to the route root; empty at the
    /// root itself.
    path: Arc<str>,
}

impl ProfileCtx {
    /// A request's root context: phases opened under it land in
    /// `collector` at the top level.
    pub fn new(collector: Arc<PhaseCollector>) -> Self {
        ProfileCtx {
            collector,
            path: Arc::from(""),
        }
    }
}

thread_local! {
    static ACTIVE: RefCell<Vec<ProfileCtx>> = const { RefCell::new(Vec::new()) };
}

/// One node of the per-route tree: plain sums, guarded by the
/// profiler's one lock.
#[derive(Debug, Default)]
struct Node {
    calls: u64,
    total_ns: u64,
    children: BTreeMap<String, Node>,
}

impl Node {
    /// The child named `name`, created on first descent.
    fn child(&mut self, name: &str) -> &mut Node {
        if !self.children.contains_key(name) {
            self.children.insert(name.to_owned(), Node::default());
        }
        self.children.get_mut(name).expect("inserted above")
    }

    fn add(&mut self, calls: u64, ns: u64) {
        self.calls = self.calls.saturating_add(calls);
        self.total_ns = self.total_ns.saturating_add(ns);
    }

    fn snapshot(&self, name: &str) -> PhaseSnapshot {
        let children: Vec<PhaseSnapshot> = self
            .children
            .iter()
            .map(|(child_name, node)| node.snapshot(child_name))
            .collect();
        let child_ns = children
            .iter()
            .fold(0u64, |sum, c| sum.saturating_add(c.total_ns));
        PhaseSnapshot {
            name: name.to_owned(),
            calls: self.calls,
            total_ns: self.total_ns,
            self_ns: self.total_ns.saturating_sub(child_ns),
            children,
        }
    }
}

/// The always-on profile tree, keyed by route: the sum of every
/// request folded in with [`Profiler::add`].
#[derive(Debug, Default)]
pub struct Profiler {
    /// Routes are the children of an unnamed top node.
    routes: Mutex<Node>,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one filed request into `route`'s tree: the root gains one
    /// call and `duration_ns`, and each phase path in `collector` its
    /// calls and nanoseconds.
    pub fn add(&self, route: &str, duration_ns: u64, collector: &PhaseCollector) {
        let phases = lock!(collector.phases.lock());
        let mut routes = lock!(self.routes.lock());
        let root = routes.child(route);
        root.add(1, duration_ns);
        for (path, &(calls, ns)) in phases.iter() {
            path.split(';')
                .fold(&mut *root, |node, name| node.child(name))
                .add(calls, ns);
        }
    }

    /// A serializable snapshot of every route's tree.
    pub fn snapshot(&self) -> ProfileReport {
        let routes = lock!(self.routes.lock());
        ProfileReport {
            routes: routes.snapshot("").children,
        }
    }
}

/// RAII guard for one phase; see [`phase`]. Not `Send`.
#[derive(Debug)]
pub struct PhaseGuard {
    started: Instant,
    collector: Arc<PhaseCollector>,
    path: Arc<str>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        self.collector.add(&self.path, self.started.elapsed());
        ACTIVE.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// Opens phase `name` under the innermost active context. Returns
/// `None` (and does nothing else) when no context is active on this
/// thread — instrumentation in library code costs one thread-local
/// read outside the serving path.
pub fn phase(name: &'static str) -> Option<PhaseGuard> {
    ACTIVE.with(|stack| {
        let parent = stack.borrow().last().cloned()?;
        let path: Arc<str> = if parent.path.is_empty() {
            Arc::from(name)
        } else {
            Arc::from(format!("{};{name}", parent.path))
        };
        stack.borrow_mut().push(ProfileCtx {
            collector: Arc::clone(&parent.collector),
            path: Arc::clone(&path),
        });
        Some(PhaseGuard {
            started: Instant::now(),
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
/// collector; a no-op outside an active context.
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
/// the guard drops. The serving edge installs each request's
/// [`ProfileCtx::new`]; the batch pool installs the context it captured
/// at submit, so worker phases nest under the submitting request's
/// phase.
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

    /// Runs `body` as one request under its own installed context, then
    /// files it on `route` with its wall time, as the serving edge does.
    fn request(profiler: &Profiler, route: &str, body: impl FnOnce()) -> Arc<PhaseCollector> {
        let collector = Arc::new(PhaseCollector::new());
        let started = Instant::now();
        {
            let _ctx = install(ProfileCtx::new(Arc::clone(&collector)));
            body();
        }
        profiler.add(route, duration_ns(started.elapsed()), &collector);
        collector
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
        let collector = request(&profiler, "recommend", || {
            let _handle = phase("handle").expect("context installed");
            {
                let _scan = phase("scan").unwrap();
                std::thread::sleep(Duration::from_millis(2));
            }
            let _rank = phase("rank").unwrap();
        });
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
        let collector = request(&profiler, "explain", || {
            for _ in 0..10 {
                let _p = phase("evidence").unwrap();
            }
        });
        let report = profiler.snapshot();
        assert_eq!(child(find(&report, "explain"), "evidence").calls, 10);
        assert_eq!(collector.phases().len(), 1, "same path sums in place");
    }

    #[test]
    fn root_self_time_is_the_duration_outside_top_level_phases() {
        let profiler = Profiler::new();
        let us = Duration::from_micros;
        for _ in 0..2 {
            let collector = PhaseCollector::new();
            collector.add("queue_wait", us(300));
            collector.add("handle", us(500));
            collector.add("handle;scan", us(400));
            profiler.add("recommend", 1_000_000, &collector);
        }
        let report = profiler.snapshot();
        let route = find(&report, "recommend");
        assert_eq!(
            (route.calls, route.total_ns),
            (2, 2_000_000),
            "the durations"
        );
        assert_eq!(route.self_ns, 400_000, "2 × (1000 − 300 − 500) µs");
        let handle = child(route, "handle");
        assert_eq!((handle.calls, handle.total_ns), (2, 1_000_000));
        assert_eq!(handle.self_ns, 200_000);
        assert_eq!(child(handle, "scan").self_ns, 800_000);
        assert_eq!(child(route, "queue_wait").total_ns, 600_000);
    }

    #[test]
    fn contexts_install_across_threads() {
        let profiler = Profiler::new();
        let collector = request(&profiler, "recommend", || {
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
        });
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
        request(&profiler, "recommend", || {
            let _handle = phase("handle").unwrap();
            let _scan = phase("scan").unwrap();
            std::thread::sleep(Duration::from_millis(1));
        });
        let collapsed = profiler.snapshot().collapsed();
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
        request(&profiler, "healthz", || {});
        let json = serde_json::to_string(&profiler.snapshot()).unwrap();
        let back: ProfileReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.routes.len(), 1);
        assert_eq!(back.routes[0].name, "healthz");
    }
}
