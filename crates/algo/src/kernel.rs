//! Tiled sparse similarity kernel — the sub-linear neighbour scan.
//!
//! The seed's user-kNN hot path recomputed `sim(u, v)` from the live
//! [`RatingsMatrix`] once per *(candidate item, rater)* pair: a
//! `recommend` call walked every rater of every unrated item and ran a
//! sorted merge over two rating rows for each, an `O(n_users)`-per-item
//! dense scan that left the 100k-user path at fractions of a request
//! per second (see `docs/kernels.md`).
//!
//! This module replaces that scan with a cache-blocked sparse kernel
//! that reads the served matrix itself, the one store every write
//! changes:
//!
//! * [`scan_similarities`] — one pass per *request* instead of one
//!   merge per pair: the candidate (user) dimension is cut into tiles,
//!   the target user's row is walked once per tile, and each item's
//!   column (its raters, in user order) drops the in-tile raters'
//!   co-rating pairs into per-candidate slots. Each candidate's pairs
//!   land in item order — exactly the order
//!   [`RatingsMatrix::co_rated`] produces — and are scored by the
//!   *same* similarity functions, so the kernel's similarities are
//!   bit-identical to the seed's.
//! * [`TILE_USERS`] — the one tile width every production scan uses,
//!   narrowed only by the 2 MiB slot cap for long rows. Tile size never
//!   changes results (tiles partition candidates; each candidate's
//!   pairs are gathered whole), so a fixed tile costs no correctness
//!   and makes every start of a world scan the same way.
//! * [`ScanEngine`] — the shared holder of the cluster-pruned
//!   [`CandidateIndex`]: the index is reassigned from write deltas or
//!   rebuilt when the matrix revision moves, and scan counters export
//!   through `exrec-obs` under `scan.<name>.*`.
//!
//! Attach an engine to a model with
//! [`UserKnn::with_engine`](crate::UserKnn::with_engine); see
//! `docs/kernels.md` for the layout diagrams, the tile measurements
//! and the exact-mode bit-identity argument.

use std::sync::Arc;

use exrec_data::{RatingDelta, RatingsMatrix};
use exrec_obs::{Counter, Gauge, Metrics};
use exrec_types::UserId;
use parking_lot::RwLock;

use crate::index::{CandidateIndex, IndexConfig};
use crate::similarity::{self, Similarity};

/// The similarity-measure parameters a scan applies per candidate —
/// the subset of [`UserKnnConfig`](crate::user_knn::UserKnnConfig)
/// that affects pair scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimParams {
    /// Similarity measure over co-ratings.
    pub similarity: Similarity,
    /// Minimum co-rated items before a pair scores at all.
    pub min_overlap: usize,
    /// Significance-weighting threshold (0 disables).
    pub significance: usize,
}

impl SimParams {
    /// Scores one candidate from its gathered co-rating pairs. This is
    /// a line-for-line port of the brute path's per-pair similarity,
    /// taking the already-merged pairs (in item order) instead of
    /// re-merging. `target` is the scanned user's `(row length, mean)`.
    fn score(
        &self,
        ratings: &RatingsMatrix,
        target: (usize, f64),
        cand: UserId,
        pairs: &[(f64, f64)],
    ) -> f64 {
        if pairs.len() < self.min_overlap {
            return 0.0;
        }
        let raw = match self.similarity {
            Similarity::Pearson => similarity::pearson(pairs),
            Similarity::Cosine => similarity::cosine(pairs),
            Similarity::AdjustedCosine => {
                let (ma, mb) = (target.1, ratings.user_mean(cand).unwrap_or_default());
                let centred: Vec<(f64, f64)> =
                    pairs.iter().map(|&(x, y)| (x - ma, y - mb)).collect();
                similarity::adjusted_cosine(&centred)
            }
            Similarity::Jaccard => {
                similarity::jaccard(pairs.len(), target.0, ratings.user_ratings(cand).len())
            }
        };
        similarity::significance_weight(raw, pairs.len(), self.significance)
    }
}

/// What one [`scan_similarities`] call touched, for the `scan.*`
/// counters and the prune-ratio gauge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Tiles the kernel visited (tiles with no co-rating still count).
    pub tiles: u64,
    /// Candidates that had at least one co-rated item and were scored.
    pub scored: u64,
    /// Co-rating pairs gathered across all scored candidates.
    pub pairs: u64,
}

/// Most pair slots one tile of [`scan_similarities`] may own (tile width
/// × the target row's length): 2 MiB of `(f64, f64)` pairs, so a long
/// row narrows the tile instead of growing the scratch.
const MAX_TILE_SLOTS: usize = 1 << 17;

/// Candidate users per tile in every production scan. Rows of up to
/// `MAX_TILE_SLOTS / TILE_USERS` = 64 ratings scan at this width; a
/// longer row narrows its tile to fit the 2 MiB slot cap. On the served
/// 10k and 30k worlds pruned `recommend` reads within noise at every
/// width from 1024 up (`docs/kernels.md#the-scan-tile`).
pub const TILE_USERS: usize = 2048;

/// Computes `sim(user, v)` for every candidate `v`, writing into the
/// dense `sims` table (`sims[v]`, zero elsewhere — matching the seed's
/// semantics, where a pair below `min_overlap` or with no co-ratings
/// scores exactly `0.0`).
///
/// `candidates` of `None` scans the full user dimension (exact mode);
/// `Some(list)` restricts the scan to a sorted, deduplicated id list
/// (pruned mode, or a single item's raters). The candidate dimension is
/// processed in `tile_users`-sized tiles, in one pass per tile: every
/// in-tile candidate owns `|row(user)|` pair slots, the target user's
/// row is walked in item order, and each item's in-tile raters append
/// their co-rating pair to their own slots; then every candidate with a
/// pair is scored. Pairs per candidate land in item order — the
/// `co_rated` merge order — so scores are bit-identical to the
/// per-pair path for any tile size.
pub fn scan_similarities(
    ratings: &RatingsMatrix,
    params: &SimParams,
    user: UserId,
    candidates: Option<&[u32]>,
    tile_users: usize,
    sims: &mut Vec<f64>,
) -> ScanOutcome {
    let n_users = ratings.n_users();
    sims.clear();
    sims.resize(n_users, 0.0);
    let mut outcome = ScanOutcome::default();

    let row = ratings.user_ratings(user);
    if row.is_empty() {
        return outcome;
    }
    let target = (row.len(), ratings.user_mean(user).unwrap_or_default());
    // Candidate `slot` owns `pairs[slot * m..][..m]`, of which the first
    // `counts[slot]` are filled; reused across tiles. A long row narrows
    // the tile so the slots stay within `MAX_TILE_SLOTS`.
    let m = row.len();
    let tile = tile_users.clamp(1, (MAX_TILE_SLOTS / m).max(1));
    let width = tile.min(candidates.map_or(n_users, <[u32]>::len));
    let mut pairs: Vec<(f64, f64)> = vec![(0.0, 0.0); width * m];
    let mut counts: Vec<u32> = Vec::with_capacity(width);

    let mut scan_tile = |members: TileMembers<'_>| {
        counts.clear();
        counts.resize(members.len(), 0);
        for &(item, x) in row {
            for &(v, y) in members.column_range(ratings.item_ratings(item)) {
                if let Some(slot) = members.slot(v.raw()) {
                    let filled = &mut counts[slot];
                    pairs[slot * m + *filled as usize] = (x, y);
                    *filled += 1;
                }
            }
        }
        outcome.tiles += 1;
        for (slot, &filled) in counts.iter().enumerate() {
            let v = UserId(members.user_at(slot));
            if filled == 0 || v == user {
                continue;
            }
            let start = slot * m;
            sims[v.index()] =
                params.score(ratings, target, v, &pairs[start..start + filled as usize]);
            outcome.scored += 1;
            outcome.pairs += u64::from(filled);
        }
    };

    match candidates {
        None => {
            let mut t0 = 0usize;
            while t0 < n_users {
                let t1 = (t0 + tile).min(n_users);
                scan_tile(TileMembers::Range { start: t0, end: t1 });
                t0 = t1;
            }
        }
        Some(list) => {
            // A dense user → tile-slot map keeps the per-rating inner
            // loop branch-cheap; only the chunk's entries are written
            // and reset, so the O(n_users) allocation amortizes.
            let mut slot_of: Vec<u32> = vec![u32::MAX; n_users];
            for chunk in list.chunks(tile) {
                for (slot, &v) in chunk.iter().enumerate() {
                    if (v as usize) < n_users {
                        slot_of[v as usize] = slot as u32;
                    }
                }
                scan_tile(TileMembers::Sparse {
                    ids: chunk,
                    slot_of: &slot_of,
                });
                for &v in chunk {
                    if (v as usize) < n_users {
                        slot_of[v as usize] = u32::MAX;
                    }
                }
            }
        }
    }

    outcome
}

/// The overlap-pruned candidate pass: ranks every user by *co-rating
/// count* with `user` and keeps roughly the `budget` highest.
///
/// It walks the same columns as an exact scan over the full user
/// dimension — one `u32` increment per co-rating incidence, no pair
/// gathering, no similarity math — so it costs a fraction of one. It
/// exists because neighbour weight under Herlocker significance
/// weighting is bounded by the overlap:
/// `|sim(u, v)| ≤ min(1, co(u, v) / significance)`, so the users this
/// pass drops are exactly the ones whose similarity is provably small.
/// The threshold is chosen adaptively (smallest co-count `τ` whose
/// tail `{v : co ≥ τ}` still fits the budget; the whole tie class at
/// `τ` is kept, so the result can exceed `budget` slightly and is
/// deterministic). Returns a sorted, ascending id list excluding
/// `user` itself; empty when the user rated nothing.
pub fn overlap_candidates(ratings: &RatingsMatrix, user: UserId, budget: usize) -> Vec<u32> {
    let n_users = ratings.n_users();
    let u = user.index();
    let row = ratings.user_ratings(user);
    if row.is_empty() || budget == 0 {
        return Vec::new();
    }
    let mut counts: Vec<u32> = vec![0; n_users];
    for &(item, _) in row {
        for &(v, _) in ratings.item_ratings(item) {
            counts[v.index()] += 1;
        }
    }
    if u < n_users {
        counts[u] = 0;
    }
    // Histogram over co-counts (capped — overlaps beyond the cap are
    // always kept) to find the adaptive threshold.
    const CAP: usize = 512;
    let mut hist = [0usize; CAP + 1];
    for &c in &counts {
        if c > 0 {
            hist[(c as usize).min(CAP)] += 1;
        }
    }
    let mut tau = 1usize;
    let mut kept: usize = hist.iter().skip(1).sum();
    for (t, &bucket) in hist.iter().enumerate().skip(1) {
        if kept <= budget {
            break;
        }
        kept -= bucket;
        tau = t + 1;
    }
    (0..n_users as u32)
        .filter(|&v| counts[v as usize] as usize >= tau)
        .collect()
}

/// Merges two sorted, deduplicated ascending id lists.
pub fn union_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// One tile's candidate membership: either a contiguous id range
/// (exact scan) or a sorted id list with a dense slot map (pruned
/// scan). Both expose the same slot arithmetic to the kernel.
enum TileMembers<'a> {
    /// Users `start..end`.
    Range { start: usize, end: usize },
    /// An explicit sorted id chunk; `slot_of[v]` is the chunk slot of
    /// user `v`, `u32::MAX` outside the chunk.
    Sparse { ids: &'a [u32], slot_of: &'a [u32] },
}

impl TileMembers<'_> {
    #[inline]
    fn len(&self) -> usize {
        match self {
            TileMembers::Range { start, end } => end - start,
            TileMembers::Sparse { ids, .. } => ids.len(),
        }
    }

    /// The part of an item's column (raters ascending by user id) that
    /// can belong to this tile, found by binary search.
    #[inline]
    fn column_range<'c>(&self, col: &'c [(UserId, f64)]) -> &'c [(UserId, f64)] {
        let (lo_bound, hi_bound) = match self {
            TileMembers::Range { start, end } => (*start as u32, *end as u32),
            TileMembers::Sparse { ids, .. } => match (ids.first(), ids.last()) {
                (Some(&first), Some(&last)) => (first, last.saturating_add(1)),
                _ => return &[],
            },
        };
        let lo = col.partition_point(|&(v, _)| v.raw() < lo_bound);
        let hi = lo + col[lo..].partition_point(|&(v, _)| v.raw() < hi_bound);
        &col[lo..hi]
    }

    /// The tile slot of user `v`, if `v` belongs to this tile.
    #[inline]
    fn slot(&self, v: u32) -> Option<usize> {
        match self {
            TileMembers::Range { start, end } => {
                let v = v as usize;
                (v >= *start && v < *end).then(|| v - start)
            }
            TileMembers::Sparse { slot_of, .. } => {
                let slot = *slot_of.get(v as usize)?;
                (slot != u32::MAX).then_some(slot as usize)
            }
        }
    }

    /// The user id occupying `slot`.
    #[inline]
    fn user_at(&self, slot: usize) -> u32 {
        match self {
            TileMembers::Range { start, .. } => (start + slot) as u32,
            TileMembers::Sparse { ids, .. } => ids[slot],
        }
    }
}

/// Deltas the candidate index absorbs by reassignment since its last
/// full build before the engine forces a fresh k-means build.
/// Reassignment moves users between *frozen* centroids, so geometry
/// drifts as writes accumulate; this bounds how far.
pub const DRIFT_REBUILD_THRESHOLD: usize = 4096;

/// Kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// Deltas the candidate index absorbs by reassignment before the
    /// next read forces a full index rebuild (see
    /// [`DRIFT_REBUILD_THRESHOLD`]). `0` disables reassignment: every
    /// revision change rebuilds the index from scratch.
    pub drift_threshold: usize,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            drift_threshold: DRIFT_REBUILD_THRESHOLD,
        }
    }
}

/// How an engine-backed [`UserKnn`](crate::UserKnn) resolves its
/// neighbour scan. `Brute` (the seed's per-pair path) is what a model
/// *without* an engine runs; an attached engine picks between these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanMode {
    /// Full tiled scan over every user: bit-identical to the seed's
    /// per-pair path, just fast.
    #[default]
    Exact,
    /// Cluster-pruned candidate scan: probe the nearest centroids of
    /// the [`CandidateIndex`] and score
    /// only their members, falling back to [`ScanMode::Exact`] when the
    /// candidate set is too small for the neighbourhood size (see
    /// `docs/kernels.md#exact-fallback`).
    Pruned,
}

impl ScanMode {
    /// Stable lowercase name (`"exact"` / `"pruned"`).
    pub fn name(self) -> &'static str {
        match self {
            ScanMode::Exact => "exact",
            ScanMode::Pruned => "pruned",
        }
    }
}

/// What the engine derives from the matrix: the candidate index,
/// which is reassigned from the pending delta chain or rebuilt when the
/// matrix revision moves. The engine keeps no handle on the matrix
/// itself.
#[derive(Default)]
struct EngineState {
    index: Option<Arc<CandidateIndex>>,
    /// Deltas applied to the matrix since the resident index was
    /// built or reassigned, in revision order; drained by the next
    /// index read.
    pending: Vec<RatingDelta>,
    /// Set when pending deltas were dropped (too many to buffer): the
    /// next index read must rebuild from scratch.
    pending_overflow: bool,
    /// Deltas absorbed by reassignment since the last *full* index
    /// build; the drift threshold compares against this.
    patched_since_build: u64,
}

/// Point-in-time scan statistics for `/debug/world` and logs.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanStats {
    /// Matrix revision the resident candidate index reflects, if any.
    pub index_revision: Option<u64>,
    /// Candidate-index (re)builds from scratch.
    pub index_builds: u64,
    /// Candidate indexes produced by cluster reassignment.
    pub index_patches: u64,
    /// Deltas waiting to be absorbed by the next index read.
    pub pending_deltas: usize,
    /// Deltas absorbed by reassignment since the last full index build
    /// (drives the drift-threshold rebuild decision).
    pub patched_since_build: u64,
    /// Centroids / probes of the resident index, if any.
    pub index_shape: Option<(usize, usize)>,
    /// Exact scans served (including fallbacks).
    pub exact_scans: u64,
    /// Pruned scans served.
    pub pruned_scans: u64,
    /// Pruned requests that fell back to exact because the candidate
    /// set was too small for `k`.
    pub exact_fallbacks: u64,
    /// Kernel tiles visited, cumulative.
    pub tiles_visited: u64,
    /// Candidates scored, cumulative.
    pub candidates_scored: u64,
    /// Fraction of the user dimension the last pruned scan *skipped*
    /// (`1 - candidates/n_users`); `0.0` until a pruned scan runs.
    pub last_prune_ratio: f64,
}

/// Shared scan state: the pruned candidate index, with `exrec-obs`
/// counters. Scans read the served matrix directly.
///
/// One engine is shared by every clone of a model (batch workers, the
/// serving edge): all derived state sits behind a read-mostly lock, and
/// the index follows the matrix revision.
pub struct ScanEngine {
    kernel: KernelConfig,
    index_cfg: IndexConfig,
    state: RwLock<EngineState>,
    index_builds: Counter,
    index_patches: Counter,
    exact_scans: Counter,
    pruned_scans: Counter,
    exact_fallbacks: Counter,
    tiles_visited: Counter,
    candidates_scored: Counter,
    prune_ratio: Gauge,
}

impl std::fmt::Debug for ScanEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanEngine")
            .field("kernel", &self.kernel)
            .field("index_cfg", &self.index_cfg)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ScanEngine {
    /// Builds an engine with standalone (unregistered) counters.
    pub fn new(kernel: KernelConfig, index_cfg: IndexConfig) -> Self {
        ScanEngine {
            kernel,
            index_cfg,
            state: RwLock::new(EngineState::default()),
            index_builds: Counter::default(),
            index_patches: Counter::default(),
            exact_scans: Counter::default(),
            pruned_scans: Counter::default(),
            exact_fallbacks: Counter::default(),
            tiles_visited: Counter::default(),
            candidates_scored: Counter::default(),
            prune_ratio: Gauge::default(),
        }
    }

    /// Builds an engine whose counters live in `metrics` under
    /// `scan.<name>.{index_builds,index_patches,exact_scans,
    /// pruned_scans,exact_fallbacks,tiles_visited,candidates_scored}`
    /// plus the `scan.<name>.prune_ratio` gauge.
    pub fn instrumented(
        kernel: KernelConfig,
        index_cfg: IndexConfig,
        metrics: &Metrics,
        name: &str,
    ) -> Self {
        let mut engine = Self::new(kernel, index_cfg);
        engine.index_builds = metrics.counter(&format!("scan.{name}.index_builds"));
        engine.index_patches = metrics.counter(&format!("scan.{name}.index_patches"));
        engine.exact_scans = metrics.counter(&format!("scan.{name}.exact_scans"));
        engine.pruned_scans = metrics.counter(&format!("scan.{name}.pruned_scans"));
        engine.exact_fallbacks = metrics.counter(&format!("scan.{name}.exact_fallbacks"));
        engine.tiles_visited = metrics.counter(&format!("scan.{name}.tiles_visited"));
        engine.candidates_scored = metrics.counter(&format!("scan.{name}.candidates_scored"));
        engine.prune_ratio = metrics.gauge(&format!("scan.{name}.prune_ratio"));
        engine
    }

    /// The candidate-index configuration.
    pub fn index_config(&self) -> &IndexConfig {
        &self.index_cfg
    }

    /// Records deltas the matrix absorbed since the resident index, so
    /// the next index read can *reassign* the touched users instead of
    /// rebuilding. Called by the write path (under its matrix write
    /// lock) with the deltas one applied record emitted; cheap — an
    /// append, never a build.
    ///
    /// Buffering is bounded by the drift threshold: once the pending
    /// backlog (plus deltas already absorbed since the last full
    /// build) crosses it, the backlog is dropped and the next index
    /// read rebuilds from scratch anyway.
    pub fn notify_deltas(&self, deltas: &[RatingDelta]) {
        if deltas.is_empty() {
            return;
        }
        let mut state = self.state.write();
        if state.index.is_none() || state.pending_overflow {
            return; // nothing resident to reassign, or already overflowed
        }
        let backlog = state.patched_since_build as usize + state.pending.len() + deltas.len();
        if backlog > self.kernel.drift_threshold {
            state.pending.clear();
            state.pending_overflow = true;
        } else {
            state.pending.extend_from_slice(deltas);
        }
    }

    /// A handle on `ratings` for a scan: an `O(1)` clone that shares
    /// the matrix's store, so scans read the served ratings, not a copy.
    /// A write through the matrix while the handle lives copies the
    /// store first, so the handle keeps reading the revision it was
    /// taken at. `params` is unused; the signature stays for callers
    /// that time this step.
    pub fn csr(&self, ratings: &RatingsMatrix, _params: &SimParams) -> RatingsMatrix {
        ratings.clone()
    }

    /// The tile width scans use: always [`TILE_USERS`].
    pub fn tile(&self) -> usize {
        TILE_USERS
    }

    /// The candidate index for `ratings`' revision. When the revision
    /// moved and the pending delta chain (see
    /// [`ScanEngine::notify_deltas`]) covers the gap exactly, the
    /// resident index *reassigns* the touched users against its frozen
    /// centroids (counted under `index_patches`). Otherwise — first
    /// use, bulk loads, overflow past the drift threshold, or writes
    /// that bypassed delta notification — it builds from scratch
    /// (counted under `index_builds`).
    pub fn index(&self, ratings: &RatingsMatrix) -> Arc<CandidateIndex> {
        let revision = ratings.revision();
        {
            let state = self.state.read();
            if let Some(index) = &state.index {
                if index.revision() == revision {
                    return Arc::clone(index);
                }
            }
        }
        let mut state = self.state.write();
        // Double-checked: another worker may have caught up while we
        // waited for the write lock.
        if let Some(index) = &state.index {
            if index.revision() == revision {
                return Arc::clone(index);
            }
        }

        // Reassign path: the pending deltas must chain one-per-revision
        // from the resident index to the live matrix — every
        // successful mutation bumps the revision by exactly one, so a
        // gap means something wrote without notifying and a
        // reassignment would miss its user.
        let can_patch = !state.pending_overflow
            && self.kernel.drift_threshold > 0
            && state.index.as_ref().is_some_and(|index| {
                let base = index.revision();
                state.pending.last().map(|d| d.revision) == Some(revision)
                    && state
                        .pending
                        .iter()
                        .enumerate()
                        .all(|(n, d)| d.revision == base + 1 + n as u64)
            });
        if can_patch {
            let pending = std::mem::take(&mut state.pending);
            let mut touched: Vec<u32> = pending.iter().map(|d| d.user.raw()).collect();
            touched.sort_unstable();
            touched.dedup();
            let resident = state.index.as_ref().expect("checked above");
            let index = Arc::new(resident.reassign(ratings, &touched));
            state.index = Some(Arc::clone(&index));
            state.patched_since_build += pending.len() as u64;
            self.index_patches.incr();
            return index;
        }

        let index = Arc::new(CandidateIndex::build(ratings, &self.index_cfg));
        state.index = Some(Arc::clone(&index));
        state.pending.clear();
        state.pending_overflow = false;
        state.patched_since_build = 0;
        self.index_builds.incr();
        index
    }

    /// The candidate-set floor below which a pruned request must fall
    /// back to exact: fewer candidates than this cannot reliably fill a
    /// `k`-neighbourhood per item (see `docs/kernels.md#exact-fallback`).
    pub fn fallback_floor(&self, k: usize) -> usize {
        self.index_cfg.min_candidates.max(k.saturating_mul(4))
    }

    /// Records one scan's outcome against the counters and gauge.
    pub fn record_scan(
        &self,
        outcome: &ScanOutcome,
        pruned: Option<(usize, usize)>,
        fell_back: bool,
    ) {
        self.tiles_visited.add(outcome.tiles);
        self.candidates_scored.add(outcome.scored);
        match pruned {
            Some((candidates, n_users)) => {
                self.pruned_scans.incr();
                let ratio = 1.0 - candidates as f64 / n_users.max(1) as f64;
                self.prune_ratio.set(ratio.max(0.0));
            }
            None => {
                self.exact_scans.incr();
                if fell_back {
                    self.exact_fallbacks.incr();
                }
            }
        }
    }

    /// Point-in-time statistics snapshot.
    pub fn stats(&self) -> ScanStats {
        let state = self.state.read();
        ScanStats {
            index_revision: state.index.as_ref().map(|i| i.revision()),
            index_builds: self.index_builds.get(),
            index_patches: self.index_patches.get(),
            pending_deltas: state.pending.len(),
            patched_since_build: state.patched_since_build,
            index_shape: state.index.as_ref().map(|i| (i.n_centroids(), i.probes())),
            exact_scans: self.exact_scans.get(),
            pruned_scans: self.pruned_scans.get(),
            exact_fallbacks: self.exact_fallbacks.get(),
            tiles_visited: self.tiles_visited.get(),
            candidates_scored: self.candidates_scored.get(),
            last_prune_ratio: self.prune_ratio.get(),
        }
    }
}

impl Default for ScanEngine {
    fn default() -> Self {
        Self::new(KernelConfig::default(), IndexConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exrec_types::{ItemId, RatingScale};

    fn toy_matrix() -> RatingsMatrix {
        let mut m = RatingsMatrix::new(5, 4, RatingScale::FIVE_STAR);
        let grid: &[(u32, u32, f64)] = &[
            (0, 0, 5.0),
            (0, 1, 3.0),
            (0, 3, 4.0),
            (1, 0, 4.0),
            (1, 1, 2.0),
            (2, 2, 1.0),
            (3, 0, 5.0),
            (3, 3, 5.0),
        ];
        for &(u, i, v) in grid {
            m.rate(UserId(u), ItemId(i), v).unwrap();
        }
        m
    }

    /// Reference: the seed's per-pair similarity, straight off the
    /// live matrix.
    fn brute_sim(m: &RatingsMatrix, params: &SimParams, a: UserId, b: UserId) -> f64 {
        let co = m.co_rated(a, b);
        if co.len() < params.min_overlap {
            return 0.0;
        }
        let pairs: Vec<(f64, f64)> = co.iter().map(|&(_, x, y)| (x, y)).collect();
        let raw = match params.similarity {
            Similarity::Pearson => similarity::pearson(&pairs),
            Similarity::Cosine => similarity::cosine(&pairs),
            Similarity::AdjustedCosine => {
                let ma = m.user_mean(a).unwrap_or_default();
                let mb = m.user_mean(b).unwrap_or_default();
                let centred: Vec<(f64, f64)> =
                    pairs.iter().map(|&(x, y)| (x - ma, y - mb)).collect();
                similarity::adjusted_cosine(&centred)
            }
            Similarity::Jaccard => {
                similarity::jaccard(co.len(), m.user_ratings(a).len(), m.user_ratings(b).len())
            }
        };
        similarity::significance_weight(raw, co.len(), params.significance)
    }

    #[test]
    fn scan_matches_brute_for_every_measure_and_tile() {
        let m = toy_matrix();
        for similarity in [
            Similarity::Pearson,
            Similarity::Cosine,
            Similarity::AdjustedCosine,
            Similarity::Jaccard,
        ] {
            let params = SimParams {
                similarity,
                min_overlap: 1,
                significance: 3,
            };
            for tile in [1, 2, 3, 64] {
                let mut sims = Vec::new();
                scan_similarities(&m, &params, UserId(0), None, tile, &mut sims);
                for v in 0..5u32 {
                    if v == 0 {
                        continue;
                    }
                    let expect = brute_sim(&m, &params, UserId(0), UserId(v));
                    assert_eq!(
                        sims[v as usize].to_bits(),
                        expect.to_bits(),
                        "{similarity:?} tile {tile} candidate {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn candidate_subset_scores_only_members() {
        let m = toy_matrix();
        let params = SimParams {
            similarity: Similarity::Cosine,
            min_overlap: 1,
            significance: 0,
        };
        let mut sims = Vec::new();
        let outcome = scan_similarities(&m, &params, UserId(0), Some(&[1, 2]), 1, &mut sims);
        assert!(sims[1] != 0.0, "candidate 1 co-rates items 0 and 1");
        assert_eq!(sims[3], 0.0, "user 3 co-rates but is not a candidate");
        assert_eq!(sims[2], 0.0, "candidate 2 has no co-ratings");
        assert_eq!(outcome.scored, 1);
    }

    #[test]
    fn empty_row_scores_nothing() {
        let m = toy_matrix();
        let params = SimParams {
            similarity: Similarity::Pearson,
            min_overlap: 1,
            significance: 0,
        };
        let mut sims = Vec::new();
        let outcome = scan_similarities(&m, &params, UserId(4), None, 8, &mut sims);
        assert_eq!(outcome.scored, 0);
        assert!(sims.iter().all(|&s| s == 0.0));
    }

    /// A row longer than `MAX_TILE_SLOTS / TILE_USERS` narrows the
    /// tile: one user with 300 ratings among 3,000 users scans at
    /// ⌈3000 / (2^17 / 300)⌉ = 7 tiles, and the sims equal the tile-1
    /// scan bit for bit, full range and subset.
    #[test]
    fn slot_cap_splits_a_long_row_without_changing_sims() {
        let (n_users, n_items) = (3_000u32, 300u32);
        let mut m = RatingsMatrix::new(n_users as usize, n_items as usize, RatingScale::FIVE_STAR);
        for i in 0..n_items {
            m.rate(UserId(0), ItemId(i), f64::from(i % 5 + 1)).unwrap();
        }
        for v in 1..n_users {
            for j in 0..6 {
                let item = (v * 7 + j * 53) % n_items;
                m.rate(UserId(v), ItemId(item), f64::from((v + j) % 5 + 1))
                    .unwrap();
            }
        }
        let params = SimParams {
            similarity: Similarity::Pearson,
            min_overlap: 2,
            significance: 5,
        };
        let (mut want, mut got) = (Vec::new(), Vec::new());
        scan_similarities(&m, &params, UserId(0), None, 1, &mut want);
        let outcome = scan_similarities(&m, &params, UserId(0), None, TILE_USERS, &mut got);
        let width = MAX_TILE_SLOTS / 300;
        assert_eq!(width, 436);
        assert_eq!(outcome.tiles, 3_000u64.div_ceil(width as u64));
        assert_eq!(outcome.tiles, 7);
        assert!(want.iter().any(|&s| s != 0.0), "the row co-rates");
        let bits = |sims: &[f64]| sims.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "full range");

        let subset: Vec<u32> = (0..n_users).step_by(3).collect();
        let outcome =
            scan_similarities(&m, &params, UserId(0), Some(&subset), TILE_USERS, &mut got);
        assert_eq!(outcome.tiles, (subset.len() as u64).div_ceil(width as u64));
        for (v, (&g, &w)) in got.iter().zip(&want).enumerate() {
            let w = if v % 3 == 0 { w } else { 0.0 };
            assert_eq!(g.to_bits(), w.to_bits(), "subset, candidate {v}");
        }
    }

    /// The engine's handle is the served store: it reads through the
    /// matrix's own rows, and a later write to the matrix copies the
    /// store instead of changing the handle.
    #[test]
    fn engine_handle_shares_the_store_until_a_write() {
        let mut m = toy_matrix();
        let engine = ScanEngine::default();
        let params = SimParams {
            similarity: Similarity::Pearson,
            min_overlap: 2,
            significance: 0,
        };
        let handle = engine.csr(&m, &params);
        assert_eq!(
            handle.user_ratings(UserId(0)).as_ptr(),
            m.user_ratings(UserId(0)).as_ptr(),
            "the handle reads the matrix's own rows"
        );
        m.rate(UserId(0), ItemId(0), 1.0).unwrap();
        assert_eq!(handle.rating(UserId(0), ItemId(0)), Some(5.0));
        assert_eq!(m.rating(UserId(0), ItemId(0)), Some(1.0));
        assert_eq!(engine.csr(&m, &params).revision(), m.revision());
    }

    #[test]
    fn index_rebuilds_on_revision_change() {
        let mut m = toy_matrix();
        let engine = ScanEngine::default();
        let i1 = engine.index(&m);
        let i2 = engine.index(&m);
        assert!(Arc::ptr_eq(&i1, &i2), "same revision reuses the index");
        assert_eq!(engine.stats().index_builds, 1);
        m.rate(UserId(2), ItemId(0), 2.0).unwrap();
        let i3 = engine.index(&m);
        assert_eq!(i3.revision(), m.revision());
        assert_eq!(engine.stats().index_builds, 2);
        assert_eq!(engine.stats().index_revision, Some(m.revision()));
    }

    /// Applies one `rate` to the live matrix and returns the delta the
    /// write path would emit for it.
    fn rate_delta(m: &mut RatingsMatrix, u: u32, i: u32, v: f64) -> RatingDelta {
        let prev = m.rate(UserId(u), ItemId(i), v).unwrap();
        RatingDelta {
            user: UserId(u),
            item: ItemId(i),
            prev,
            value: Some(v),
            revision: m.revision(),
        }
    }

    #[test]
    fn index_reassigns_when_delta_chain_covers_the_gap() {
        let mut m = toy_matrix();
        let engine = ScanEngine::default();
        let first = engine.index(&m);
        let deltas = vec![rate_delta(&mut m, 2, 0, 4.0), rate_delta(&mut m, 2, 1, 5.0)];
        engine.notify_deltas(&deltas);
        assert_eq!(engine.stats().pending_deltas, 2);
        let patched = engine.index(&m);
        let stats = engine.stats();
        assert_eq!(stats.index_builds, 1, "no second full build");
        assert_eq!(stats.index_patches, 1);
        assert_eq!(stats.pending_deltas, 0);
        assert_eq!(stats.patched_since_build, 2);
        assert_eq!(patched.revision(), m.revision());
        // The patched index is the resident one with the touched user
        // reassigned.
        let want = first.reassign(&m, &[2]);
        for u in 0..5u32 {
            assert_eq!(
                patched.candidates(&m, u),
                want.candidates(&m, u),
                "user {u}"
            );
        }
    }

    #[test]
    fn unnotified_mutation_falls_back_to_full_rebuild() {
        let mut m = toy_matrix();
        let engine = ScanEngine::default();
        engine.index(&m);
        let _gap = rate_delta(&mut m, 3, 1, 2.0); // never notified
        let notified = vec![rate_delta(&mut m, 2, 0, 4.0)];
        engine.notify_deltas(&notified);
        let rebuilt = engine.index(&m);
        let stats = engine.stats();
        assert_eq!(stats.index_patches, 0, "broken chain must not reassign");
        assert_eq!(stats.index_builds, 2);
        assert_eq!(rebuilt.revision(), m.revision());
        assert_eq!(stats.pending_deltas, 0, "stale backlog discarded");
    }

    #[test]
    fn drift_threshold_forces_full_rebuild() {
        let mut m = toy_matrix();
        let engine = ScanEngine::new(KernelConfig { drift_threshold: 2 }, IndexConfig::default());
        engine.index(&m);
        for round in 0..3u32 {
            let deltas = vec![rate_delta(&mut m, 2, 0, f64::from(round % 5) + 1.0)];
            engine.notify_deltas(&deltas);
            engine.index(&m);
        }
        let stats = engine.stats();
        assert_eq!(stats.index_patches, 2, "threshold admits two deltas");
        assert_eq!(stats.index_builds, 2, "third write crossed the threshold");
        assert_eq!(stats.patched_since_build, 0, "rebuild resets drift");
    }

    #[test]
    fn record_scan_tracks_modes_and_prune_ratio() {
        let engine = ScanEngine::default();
        let outcome = ScanOutcome {
            tiles: 3,
            scored: 10,
            pairs: 25,
        };
        engine.record_scan(&outcome, None, false);
        engine.record_scan(&outcome, Some((25, 100)), false);
        engine.record_scan(&outcome, None, true);
        let stats = engine.stats();
        assert_eq!(stats.exact_scans, 2);
        assert_eq!(stats.pruned_scans, 1);
        assert_eq!(stats.exact_fallbacks, 1);
        assert_eq!(stats.tiles_visited, 9);
        assert!((stats.last_prune_ratio - 0.75).abs() < 1e-12);
    }
}
