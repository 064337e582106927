//! CSR-tiled sparse similarity kernel — the sub-linear neighbour scan.
//!
//! The seed's user-kNN hot path recomputed `sim(u, v)` from the live
//! [`RatingsMatrix`] once per *(candidate item, rater)* pair: a
//! `recommend` call walked every rater of every unrated item and ran a
//! sorted merge over two rating rows for each, an `O(n_users)`-per-item
//! dense scan that left the 100k-user path at fractions of a request
//! per second (see `docs/kernels.md`).
//!
//! This module replaces that scan with a cache-blocked sparse kernel
//! over a CSR-compacted snapshot of the matrix:
//!
//! * [`CsrRatings`] — an immutable, revision-stamped CSR/CSC compaction
//!   of the ratings: user-major rows and item-major columns in four
//!   flat arrays, plus precomputed per-user means. Contiguous storage
//!   is what makes the kernel's inner loops stream instead of chase
//!   `Vec<Vec<…>>` pointers.
//! * [`scan_similarities`] — one pass per *request* instead of one
//!   merge per pair: the candidate (user) dimension is cut into tiles,
//!   the target user's items are walked once per tile, and co-rating
//!   partials accumulate into per-tile scratch blocks sized to stay in
//!   cache. Per-candidate co-rating pairs are gathered in item order —
//!   exactly the order [`exrec_data::RatingsMatrix::co_rated`]
//!   produces — and scored by the *same* similarity functions, so the
//!   kernel's similarities are bit-identical to the seed's.
//! * [`autotune`] — a startup micro-sweep over [`TILE_CANDIDATES`]
//!   that times the kernel on a few sample users and picks the
//!   fastest tile size. Tile size never changes results (tiles
//!   partition candidates; each candidate's pairs are gathered whole),
//!   so the tuner optimizes purely over a correctness-invariant axis.
//! * [`ScanEngine`] — the shared, revision-keyed holder of the CSR
//!   snapshot, the tuned tile size and the cluster-pruned
//!   [`CandidateIndex`]: stale snapshots
//!   are rebuilt when the matrix revision moves, and scan counters
//!   export through `exrec-obs` under `scan.<name>.*`.
//!
//! Attach an engine to a model with
//! [`UserKnn::with_engine`](crate::UserKnn::with_engine); see
//! `docs/kernels.md` for the layout diagrams, the autotuner protocol
//! and the exact-mode bit-identity argument.

use std::sync::Arc;
use std::time::Instant;

use exrec_data::{RatingDelta, RatingsMatrix};
use exrec_obs::{Counter, Gauge, Metrics};
use exrec_types::UserId;
use parking_lot::RwLock;

use crate::index::{CandidateIndex, IndexConfig};
use crate::similarity::{self, Similarity};

/// An immutable CSR/CSC compaction of a [`RatingsMatrix`], stamped with
/// the revision it was built from.
///
/// Rows (user-major) drive "which items did `u` rate"; columns
/// (item-major) drive "who rated item `i`". Both sides keep ids sorted
/// ascending, exactly like the source matrix, so merges and binary
/// searches carry over unchanged — just over flat, contiguous arrays.
#[derive(Debug, Clone)]
pub struct CsrRatings {
    revision: u64,
    n_users: usize,
    n_items: usize,
    /// `row_ptr[u]..row_ptr[u + 1]` indexes `row_items` / `row_vals`.
    row_ptr: Vec<usize>,
    /// Item ids of each user's ratings, ascending within a row.
    row_items: Vec<u32>,
    /// Rating values, parallel to `row_items`.
    row_vals: Vec<f64>,
    /// `col_ptr[i]..col_ptr[i + 1]` indexes `col_users` / `col_vals`.
    col_ptr: Vec<usize>,
    /// User ids of each item's raters, ascending within a column.
    col_users: Vec<u32>,
    /// Rating values, parallel to `col_users`.
    col_vals: Vec<f64>,
    /// Per-user mean rating, `0.0` for empty rows. Computed with the
    /// same left-to-right fold as [`RatingsMatrix::user_mean`], so the
    /// values are bit-identical to the live matrix's.
    user_mean: Vec<f64>,
}

impl CsrRatings {
    /// Compacts `ratings` into CSR form. `O(n_ratings)`.
    pub fn from_matrix(ratings: &RatingsMatrix) -> Self {
        let n_users = ratings.n_users();
        let n_items = ratings.n_items();
        let nnz = ratings.n_ratings();

        let mut row_ptr = Vec::with_capacity(n_users + 1);
        let mut row_items = Vec::with_capacity(nnz);
        let mut row_vals = Vec::with_capacity(nnz);
        let mut user_mean = Vec::with_capacity(n_users);
        row_ptr.push(0);
        for u in 0..n_users {
            let row = ratings.user_ratings(UserId::new(u as u32));
            for &(item, value) in row {
                row_items.push(item.raw());
                row_vals.push(value);
            }
            row_ptr.push(row_items.len());
            let mean = if row.is_empty() {
                0.0
            } else {
                // Same fold as RatingsMatrix::user_mean: iterator sum
                // over values in item order, divided by the length.
                row.iter().map(|&(_, v)| v).sum::<f64>() / row.len() as f64
            };
            user_mean.push(mean);
        }

        let mut col_ptr = Vec::with_capacity(n_items + 1);
        let mut col_users = Vec::with_capacity(nnz);
        let mut col_vals = Vec::with_capacity(nnz);
        col_ptr.push(0);
        for i in 0..n_items {
            let col = ratings.item_ratings(exrec_types::ItemId::new(i as u32));
            for &(user, value) in col {
                col_users.push(user.raw());
                col_vals.push(value);
            }
            col_ptr.push(col_users.len());
        }

        CsrRatings {
            revision: ratings.revision(),
            n_users,
            n_items,
            row_ptr,
            row_items,
            row_vals,
            col_ptr,
            col_users,
            col_vals,
            user_mean,
        }
    }

    /// The matrix revision this snapshot was compacted from.
    #[inline]
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Number of users in the id space.
    #[inline]
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Number of items in the id space.
    #[inline]
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Stored ratings.
    #[inline]
    pub fn n_ratings(&self) -> usize {
        self.row_items.len()
    }

    /// A user's row: parallel `(item ids, values)` slices, ascending by
    /// item. Empty for out-of-range users.
    #[inline]
    pub fn row(&self, user: usize) -> (&[u32], &[f64]) {
        if user + 1 >= self.row_ptr.len() {
            return (&[], &[]);
        }
        let (a, b) = (self.row_ptr[user], self.row_ptr[user + 1]);
        (&self.row_items[a..b], &self.row_vals[a..b])
    }

    /// An item's column: parallel `(user ids, values)` slices, ascending
    /// by user. Empty for out-of-range items.
    #[inline]
    pub fn col(&self, item: usize) -> (&[u32], &[f64]) {
        if item + 1 >= self.col_ptr.len() {
            return (&[], &[]);
        }
        let (a, b) = (self.col_ptr[item], self.col_ptr[item + 1]);
        (&self.col_users[a..b], &self.col_vals[a..b])
    }

    /// Number of ratings in a user's row.
    #[inline]
    pub fn row_len(&self, user: usize) -> usize {
        if user + 1 >= self.row_ptr.len() {
            0
        } else {
            self.row_ptr[user + 1] - self.row_ptr[user]
        }
    }

    /// The user's mean rating, or `default` when the row is empty (the
    /// same contract as `user_mean(u).unwrap_or(default)` on the live
    /// matrix, with bit-identical means).
    #[inline]
    pub fn user_mean_or(&self, user: usize, default: f64) -> f64 {
        if self.row_len(user) == 0 {
            default
        } else {
            self.user_mean[user]
        }
    }

    /// Builds the snapshot for the matrix state *after* `deltas`, by
    /// splicing the touched rows/columns and copying everything else
    /// wholesale — `O(nnz)` memcpy instead of re-walking the matrix,
    /// and crucially without re-running the autotune sweep.
    ///
    /// The result is **bit-identical** to [`CsrRatings::from_matrix`]
    /// on the mutated matrix: touched rows are merged in ascending id
    /// order exactly as the matrix stores them, and touched users'
    /// means are recomputed with the same left-to-right fold (asserted
    /// by `patched_csr_is_bit_identical_to_fresh` in the tests).
    ///
    /// `deltas` must describe consecutive revisions starting at
    /// `self.revision() + 1`; the engine's chain check enforces this
    /// before calling.
    pub fn apply_deltas(&self, deltas: &[RatingDelta]) -> CsrRatings {
        use std::collections::BTreeMap;
        // Last write wins per cell; BTreeMaps keep the changed ids in
        // the ascending order the splice needs.
        let mut row_changes: BTreeMap<u32, BTreeMap<u32, Option<f64>>> = BTreeMap::new();
        let mut col_changes: BTreeMap<u32, BTreeMap<u32, Option<f64>>> = BTreeMap::new();
        for d in deltas {
            row_changes
                .entry(d.user.raw())
                .or_default()
                .insert(d.item.raw(), d.value);
            col_changes
                .entry(d.item.raw())
                .or_default()
                .insert(d.user.raw(), d.value);
        }

        /// Merges one sorted id/value row with its sorted change set.
        fn splice(
            ids: &[u32],
            vals: &[f64],
            changes: &BTreeMap<u32, Option<f64>>,
            out_ids: &mut Vec<u32>,
            out_vals: &mut Vec<f64>,
        ) {
            let mut pending = changes.iter().peekable();
            for (idx, &id) in ids.iter().enumerate() {
                while let Some(&(&cid, value)) = pending.peek() {
                    if cid >= id {
                        break;
                    }
                    if let Some(v) = value {
                        out_ids.push(cid);
                        out_vals.push(*v);
                    }
                    pending.next();
                }
                match pending.peek() {
                    Some(&(&cid, value)) if cid == id => {
                        if let Some(v) = value {
                            out_ids.push(id);
                            out_vals.push(*v);
                        }
                        pending.next();
                    }
                    _ => {
                        out_ids.push(id);
                        out_vals.push(vals[idx]);
                    }
                }
            }
            for (&cid, value) in pending {
                if let Some(v) = value {
                    out_ids.push(cid);
                    out_vals.push(*v);
                }
            }
        }

        let grow = deltas.len();
        let mut row_ptr = Vec::with_capacity(self.n_users + 1);
        let mut row_items = Vec::with_capacity(self.row_items.len() + grow);
        let mut row_vals = Vec::with_capacity(self.row_vals.len() + grow);
        let mut user_mean = Vec::with_capacity(self.n_users);
        row_ptr.push(0);
        for u in 0..self.n_users {
            let start = row_items.len();
            match row_changes.get(&(u as u32)) {
                None => {
                    let (ids, vals) = self.row(u);
                    row_items.extend_from_slice(ids);
                    row_vals.extend_from_slice(vals);
                    user_mean.push(self.user_mean[u]);
                }
                Some(changes) => {
                    let (ids, vals) = self.row(u);
                    splice(ids, vals, changes, &mut row_items, &mut row_vals);
                    let row = &row_vals[start..];
                    // Same fold as RatingsMatrix::user_mean.
                    let mean = if row.is_empty() {
                        0.0
                    } else {
                        row.iter().sum::<f64>() / row.len() as f64
                    };
                    user_mean.push(mean);
                }
            }
            row_ptr.push(row_items.len());
        }

        let mut col_ptr = Vec::with_capacity(self.n_items + 1);
        let mut col_users = Vec::with_capacity(self.col_users.len() + grow);
        let mut col_vals = Vec::with_capacity(self.col_vals.len() + grow);
        col_ptr.push(0);
        for i in 0..self.n_items {
            match col_changes.get(&(i as u32)) {
                None => {
                    let (ids, vals) = self.col(i);
                    col_users.extend_from_slice(ids);
                    col_vals.extend_from_slice(vals);
                }
                Some(changes) => {
                    let (ids, vals) = self.col(i);
                    splice(ids, vals, changes, &mut col_users, &mut col_vals);
                }
            }
            col_ptr.push(col_users.len());
        }

        CsrRatings {
            revision: deltas.last().map(|d| d.revision).unwrap_or(self.revision),
            n_users: self.n_users,
            n_items: self.n_items,
            row_ptr,
            row_items,
            row_vals,
            col_ptr,
            col_users,
            col_vals,
            user_mean,
        }
    }
}

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
    /// re-merging.
    fn score(&self, csr: &CsrRatings, user: usize, cand: usize, pairs: &[(f64, f64)]) -> f64 {
        if pairs.len() < self.min_overlap {
            return 0.0;
        }
        let raw = match self.similarity {
            Similarity::Pearson => similarity::pearson(pairs),
            Similarity::Cosine => similarity::cosine(pairs),
            Similarity::AdjustedCosine => {
                let ma = csr.user_mean_or(user, 0.0);
                let mb = csr.user_mean_or(cand, 0.0);
                let centred: Vec<(f64, f64)> =
                    pairs.iter().map(|&(x, y)| (x - ma, y - mb)).collect();
                similarity::adjusted_cosine(&centred)
            }
            Similarity::Jaccard => {
                similarity::jaccard(pairs.len(), csr.row_len(user), csr.row_len(cand))
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

/// Computes `sim(user, v)` for every candidate `v`, writing into the
/// dense `sims` table (`sims[v]`, zero elsewhere — matching the seed's
/// semantics, where a pair below `min_overlap` or with no co-ratings
/// scores exactly `0.0`).
///
/// `candidates` of `None` scans the full user dimension (exact mode);
/// `Some(list)` restricts the scan to a sorted, deduplicated id list
/// (pruned mode, or a single item's raters). The candidate dimension is
/// processed in `tile_users`-sized tiles; per tile, the target user's
/// row is walked once and each item column's in-tile range accumulates
/// co-rating counts, then pairs, then per-candidate scores. Pairs per
/// candidate are gathered in item order — the `co_rated` merge order —
/// so scores are bit-identical to the per-pair path for any tile size.
pub fn scan_similarities(
    csr: &CsrRatings,
    params: &SimParams,
    user: UserId,
    candidates: Option<&[u32]>,
    tile_users: usize,
    sims: &mut Vec<f64>,
) -> ScanOutcome {
    let n_users = csr.n_users();
    sims.clear();
    sims.resize(n_users, 0.0);
    let mut outcome = ScanOutcome::default();

    let u = user.index();
    let (u_items, u_vals) = csr.row(u);
    if u_items.is_empty() {
        return outcome;
    }
    let tile = tile_users.max(1);

    // Per-tile scratch, reused across tiles.
    let mut counts: Vec<u32> = Vec::new();
    let mut offsets: Vec<usize> = Vec::new();
    let mut cursor: Vec<usize> = Vec::new();
    let mut pairs: Vec<(f64, f64)> = Vec::new();
    // Per-item column subranges for the current tile, so pass 2 reuses
    // pass 1's binary searches.
    let mut ranges: Vec<(usize, usize)> = vec![(0, 0); u_items.len()];

    let mut scan_tile = |members: TileMembers<'_>| {
        let width = members.len();
        counts.clear();
        counts.resize(width, 0);

        // Pass 1: count co-ratings per in-tile candidate.
        let mut total = 0usize;
        for (idx, &item) in u_items.iter().enumerate() {
            let (cu, _) = csr.col(item as usize);
            let (lo, hi) = members.column_range(cu);
            ranges[idx] = (lo, hi);
            for &v in &cu[lo..hi] {
                if let Some(slot) = members.slot(v) {
                    counts[slot] += 1;
                    total += 1;
                }
            }
        }
        outcome.tiles += 1;
        if total == 0 {
            return;
        }

        // Prefix-sum offsets; gather pairs in item order per candidate.
        offsets.clear();
        offsets.reserve(width);
        let mut acc = 0usize;
        for &c in counts.iter() {
            offsets.push(acc);
            acc += c as usize;
        }
        cursor.clear();
        cursor.extend_from_slice(&offsets);
        pairs.clear();
        pairs.resize(total, (0.0, 0.0));
        for (idx, &x) in u_vals.iter().enumerate() {
            let (cu, cv) = csr.col(u_items[idx] as usize);
            let (lo, hi) = ranges[idx];
            for j in lo..hi {
                if let Some(slot) = members.slot(cu[j]) {
                    pairs[cursor[slot]] = (x, cv[j]);
                    cursor[slot] += 1;
                }
            }
        }

        // Pass 3: score every candidate that co-rated anything.
        for slot in 0..width {
            let cnt = counts[slot] as usize;
            if cnt == 0 {
                continue;
            }
            let v = members.user_at(slot) as usize;
            if v == u {
                continue;
            }
            let span = &pairs[offsets[slot]..offsets[slot] + cnt];
            sims[v] = params.score(csr, u, v, span);
            outcome.scored += 1;
            outcome.pairs += cnt as u64;
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
/// This is pass 1 of the tiled kernel run standalone over the full
/// user dimension — one `u32` increment per co-rating incidence, no
/// pair gathering, no similarity math — so it costs a small fraction
/// of an exact scan. It exists because neighbour weight under
/// Herlocker significance weighting is bounded by the overlap:
/// `|sim(u, v)| ≤ min(1, co(u, v) / significance)`, so the users this
/// pass drops are exactly the ones whose similarity is provably small.
/// The threshold is chosen adaptively (smallest co-count `τ` whose
/// tail `{v : co ≥ τ}` still fits the budget; the whole tie class at
/// `τ` is kept, so the result can exceed `budget` slightly and is
/// deterministic). Returns a sorted, ascending id list excluding
/// `user` itself; empty when the user rated nothing.
pub fn overlap_candidates(csr: &CsrRatings, user: UserId, budget: usize) -> Vec<u32> {
    let n_users = csr.n_users();
    let u = user.index();
    let (u_items, _) = csr.row(u);
    if u_items.is_empty() || budget == 0 {
        return Vec::new();
    }
    let mut counts: Vec<u32> = vec![0; n_users];
    for &item in u_items {
        let (cu, _) = csr.col(item as usize);
        for &v in cu {
            counts[v as usize] += 1;
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
/// scan). Both expose the same slot arithmetic to the kernel passes.
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

    /// The subrange of a sorted user-id column that can belong to this
    /// tile, found by binary search.
    #[inline]
    fn column_range(&self, col_users: &[u32]) -> (usize, usize) {
        let (lo_bound, hi_bound) = match self {
            TileMembers::Range { start, end } => (*start as u32, *end as u32),
            TileMembers::Sparse { ids, .. } => {
                if ids.is_empty() {
                    return (0, 0);
                }
                (ids[0], ids[ids.len() - 1].saturating_add(1))
            }
        };
        let lo = col_users.partition_point(|&v| v < lo_bound);
        let hi = lo + col_users[lo..].partition_point(|&v| v < hi_bound);
        (lo, hi)
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

/// Tile sizes the autotuner sweeps. Powers of two spanning "fits in
/// L1 scratch" to "one tile per request on mid-size worlds".
pub const TILE_CANDIDATES: &[usize] = &[256, 512, 1024, 2048, 4096, 8192];

/// How the kernel picks its tile size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TileSize {
    /// Startup micro-sweep over [`TILE_CANDIDATES`] (see [`autotune`]).
    #[default]
    Auto,
    /// A fixed tile size (tests and benchmarks; results are identical
    /// for any value — only the clock changes).
    Fixed(usize),
}

/// Deltas applied incrementally since the last full build before the
/// engine forces a fresh rebuild (autotune + k-means). Cluster
/// reassignment moves users between *frozen* centroids, so geometry
/// drifts as writes accumulate; this bounds how far.
pub const DRIFT_REBUILD_THRESHOLD: usize = 4096;

/// Kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// Candidate-dimension tile size.
    pub tile: TileSize,
    /// Deltas absorbed by incremental patching before the next read
    /// forces a full CSR + index rebuild (see
    /// [`DRIFT_REBUILD_THRESHOLD`]). `0` disables patching entirely:
    /// every revision change rebuilds from scratch.
    pub drift_threshold: usize,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            tile: TileSize::default(),
            drift_threshold: DRIFT_REBUILD_THRESHOLD,
        }
    }
}

/// One autotuner measurement: `(tile size, total nanoseconds)` over the
/// sample users.
pub type SweepPoint = (usize, u64);

/// Outcome of an [`autotune`] sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AutotuneReport {
    /// The tile size the kernel will use.
    pub chosen: usize,
    /// Every `(tile, elapsed_ns)` point measured, in sweep order.
    pub sweep: Vec<SweepPoint>,
}

/// Startup micro-sweep: times an exact scan for a handful of sample
/// users at every [`TILE_CANDIDATES`] size and picks the fastest
/// (ties break toward the smaller tile). Tile size cannot change
/// results — the sweep optimizes wall-clock only — so a noisy pick
/// costs microseconds, never correctness.
pub fn autotune(csr: &CsrRatings, params: &SimParams) -> AutotuneReport {
    // Up to 4 sample users, strided over the id space, skipping empty
    // rows so the sweep measures real work.
    let n = csr.n_users();
    let mut samples: Vec<UserId> = Vec::new();
    if n > 0 {
        let stride = (n / 4).max(1);
        let mut u = 0usize;
        while u < n && samples.len() < 4 {
            let mut probe = u;
            while probe < n && csr.row_len(probe) == 0 {
                probe += 1;
            }
            if probe < n {
                samples.push(UserId::new(probe as u32));
            }
            u += stride;
        }
    }
    let mut sims = Vec::new();
    let mut sweep = Vec::with_capacity(TILE_CANDIDATES.len());
    let mut chosen = TILE_CANDIDATES[0];
    let mut best = u64::MAX;
    for &tile in TILE_CANDIDATES {
        let started = Instant::now();
        for &user in &samples {
            scan_similarities(csr, params, user, None, tile, &mut sims);
        }
        let elapsed = started.elapsed().as_nanos() as u64;
        sweep.push((tile, elapsed));
        if elapsed < best {
            best = elapsed;
            chosen = tile;
        }
    }
    AutotuneReport { chosen, sweep }
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

/// Revision-keyed derived state: the CSR snapshot, the tuned tile and
/// the candidate index, rebuilt lazily when the matrix moves — or
/// *patched* in place when the pending delta chain covers the gap.
#[derive(Default)]
struct EngineState {
    csr: Option<Arc<CsrRatings>>,
    tune: Option<AutotuneReport>,
    index: Option<Arc<CandidateIndex>>,
    /// Deltas applied to the matrix since the resident snapshot was
    /// taken, in revision order; drained by the next read.
    pending: Vec<RatingDelta>,
    /// Set when pending deltas were dropped (too many to buffer): the
    /// next read must rebuild from scratch.
    pending_overflow: bool,
    /// Deltas absorbed by patching since the last *full* build; the
    /// drift threshold compares against this.
    patched_since_build: u64,
}

/// Point-in-time scan statistics for `/debug/world` and logs.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanStats {
    /// Tile size currently in use (`None` before the first scan).
    pub tile_users: Option<usize>,
    /// The autotuner's sweep, when tile selection was automatic.
    pub sweep: Vec<SweepPoint>,
    /// Revision of the resident CSR snapshot, if any.
    pub csr_revision: Option<u64>,
    /// CSR snapshot (re)builds from scratch.
    pub csr_builds: u64,
    /// Candidate-index (re)builds from scratch.
    pub index_builds: u64,
    /// CSR snapshots produced by incremental delta patching.
    pub csr_patches: u64,
    /// Candidate indexes produced by cluster reassignment.
    pub index_patches: u64,
    /// Deltas waiting to be absorbed by the next read.
    pub pending_deltas: usize,
    /// Deltas absorbed by patching since the last full build (drives
    /// the drift-threshold rebuild decision).
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

/// Shared, revision-keyed scan state: CSR snapshot + autotuned tile +
/// pruned candidate index, with `exrec-obs` counters.
///
/// One engine is shared by every clone of a model (batch workers, the
/// serving edge): all derived state sits behind a read-mostly lock and
/// rebuilds at most once per matrix revision.
pub struct ScanEngine {
    kernel: KernelConfig,
    index_cfg: IndexConfig,
    state: RwLock<EngineState>,
    csr_builds: Counter,
    index_builds: Counter,
    csr_patches: Counter,
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
            csr_builds: Counter::default(),
            index_builds: Counter::default(),
            csr_patches: Counter::default(),
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
    /// `scan.<name>.{csr_builds,index_builds,csr_patches,index_patches,
    /// exact_scans,pruned_scans,exact_fallbacks,tiles_visited,
    /// candidates_scored}` plus the `scan.<name>.prune_ratio` gauge.
    pub fn instrumented(
        kernel: KernelConfig,
        index_cfg: IndexConfig,
        metrics: &Metrics,
        name: &str,
    ) -> Self {
        let mut engine = Self::new(kernel, index_cfg);
        engine.csr_builds = metrics.counter(&format!("scan.{name}.csr_builds"));
        engine.index_builds = metrics.counter(&format!("scan.{name}.index_builds"));
        engine.csr_patches = metrics.counter(&format!("scan.{name}.csr_patches"));
        engine.index_patches = metrics.counter(&format!("scan.{name}.index_patches"));
        engine.exact_scans = metrics.counter(&format!("scan.{name}.exact_scans"));
        engine.pruned_scans = metrics.counter(&format!("scan.{name}.pruned_scans"));
        engine.exact_fallbacks = metrics.counter(&format!("scan.{name}.exact_fallbacks"));
        engine.tiles_visited = metrics.counter(&format!("scan.{name}.tiles_visited"));
        engine.candidates_scored = metrics.counter(&format!("scan.{name}.candidates_scored"));
        engine.prune_ratio = metrics.gauge(&format!("scan.{name}.prune_ratio"));
        engine
    }

    /// The kernel configuration.
    pub fn kernel_config(&self) -> &KernelConfig {
        &self.kernel
    }

    /// The candidate-index configuration.
    pub fn index_config(&self) -> &IndexConfig {
        &self.index_cfg
    }

    /// Records deltas the matrix absorbed since the resident snapshot,
    /// so the next read can *patch* instead of rebuild. Called by the
    /// write path (under its matrix write lock) with the deltas one
    /// applied record emitted; cheap — an append, never a build.
    ///
    /// Buffering is bounded by the drift threshold: once the pending
    /// backlog (plus deltas already absorbed since the last full
    /// build) crosses it, the backlog is dropped and the next read
    /// rebuilds from scratch anyway.
    pub fn notify_deltas(&self, deltas: &[RatingDelta]) {
        if deltas.is_empty() {
            return;
        }
        let mut state = self.state.write();
        if state.csr.is_none() || state.pending_overflow {
            return; // nothing resident to patch, or already overflowed
        }
        let backlog = state.patched_since_build as usize + state.pending.len() + deltas.len();
        if backlog > self.kernel.drift_threshold {
            state.pending.clear();
            state.pending_overflow = true;
        } else {
            state.pending.extend_from_slice(deltas);
        }
    }

    /// The CSR snapshot for `ratings`. When the matrix revision moved
    /// and the pending delta chain (see [`ScanEngine::notify_deltas`])
    /// covers the gap exactly, the resident snapshot is *patched* —
    /// `O(nnz)` splice, tuned tile kept, index clusters reassigned —
    /// counted under `csr_patches`/`index_patches`. Otherwise (bulk
    /// loads, overflow past the drift threshold, or mutations that
    /// bypassed delta notification) it rebuilds from scratch, re-runs
    /// the tile sweep, and drops the index (counted under
    /// `csr_builds`).
    pub fn csr(&self, ratings: &RatingsMatrix, params: &SimParams) -> Arc<CsrRatings> {
        {
            let state = self.state.read();
            if let Some(csr) = &state.csr {
                if csr.revision() == ratings.revision() {
                    return Arc::clone(csr);
                }
            }
        }
        let mut state = self.state.write();
        // Double-checked: another worker may have rebuilt while we
        // waited for the write lock.
        if let Some(csr) = &state.csr {
            if csr.revision() == ratings.revision() {
                return Arc::clone(csr);
            }
        }

        // Patch path: the pending deltas must chain one-per-revision
        // from the resident snapshot to the live matrix — every
        // successful mutation bumps the revision by exactly one, so a
        // gap means something wrote without notifying and the patch
        // would silently diverge.
        let can_patch = !state.pending_overflow
            && self.kernel.drift_threshold > 0
            && state.csr.as_ref().is_some_and(|csr| {
                let base = csr.revision();
                !state.pending.is_empty()
                    && state.pending.last().map(|d| d.revision) == Some(ratings.revision())
                    && state
                        .pending
                        .iter()
                        .enumerate()
                        .all(|(n, d)| d.revision == base + 1 + n as u64)
            });
        if can_patch {
            let pending = std::mem::take(&mut state.pending);
            let csr = Arc::new(
                state
                    .csr
                    .as_ref()
                    .expect("checked above")
                    .apply_deltas(&pending),
            );
            if let Some(index) = &state.index {
                let mut touched: Vec<u32> = pending.iter().map(|d| d.user.raw()).collect();
                touched.sort_unstable();
                touched.dedup();
                state.index = Some(Arc::new(index.reassign(&csr, &touched)));
                self.index_patches.incr();
            }
            state.patched_since_build += pending.len() as u64;
            state.csr = Some(Arc::clone(&csr));
            self.csr_patches.incr();
            return csr;
        }

        let csr = Arc::new(CsrRatings::from_matrix(ratings));
        state.tune = Some(match self.kernel.tile {
            TileSize::Fixed(tile) => AutotuneReport {
                chosen: tile.max(1),
                sweep: Vec::new(),
            },
            TileSize::Auto => autotune(&csr, params),
        });
        state.index = None; // stale with the old revision; rebuilt on demand
        state.csr = Some(Arc::clone(&csr));
        state.pending.clear();
        state.pending_overflow = false;
        state.patched_since_build = 0;
        self.csr_builds.incr();
        csr
    }

    /// The tuned tile size for the resident snapshot (falls back to a
    /// safe default if called before [`ScanEngine::csr`]).
    pub fn tile(&self) -> usize {
        self.state
            .read()
            .tune
            .as_ref()
            .map(|t| t.chosen)
            .unwrap_or(TILE_CANDIDATES[2])
    }

    /// The candidate index for `csr`, building it on first use per
    /// revision (counted under `index_builds`).
    pub fn index(&self, csr: &Arc<CsrRatings>) -> Arc<CandidateIndex> {
        {
            let state = self.state.read();
            if let Some(index) = &state.index {
                if index.revision() == csr.revision() {
                    return Arc::clone(index);
                }
            }
        }
        let mut state = self.state.write();
        if let Some(index) = &state.index {
            if index.revision() == csr.revision() {
                return Arc::clone(index);
            }
        }
        let index = Arc::new(CandidateIndex::build(csr, &self.index_cfg));
        state.index = Some(Arc::clone(&index));
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
            tile_users: state.tune.as_ref().map(|t| t.chosen),
            sweep: state
                .tune
                .as_ref()
                .map(|t| t.sweep.clone())
                .unwrap_or_default(),
            csr_revision: state.csr.as_ref().map(|c| c.revision()),
            csr_builds: self.csr_builds.get(),
            index_builds: self.index_builds.get(),
            csr_patches: self.csr_patches.get(),
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

    #[test]
    fn csr_mirrors_matrix() {
        let m = toy_matrix();
        let csr = CsrRatings::from_matrix(&m);
        assert_eq!(csr.n_users(), 5);
        assert_eq!(csr.n_items(), 4);
        assert_eq!(csr.n_ratings(), m.n_ratings());
        assert_eq!(csr.revision(), m.revision());
        let (items, vals) = csr.row(0);
        assert_eq!(items, &[0, 1, 3]);
        assert_eq!(vals, &[5.0, 3.0, 4.0]);
        let (users, vals) = csr.col(0);
        assert_eq!(users, &[0, 1, 3]);
        assert_eq!(vals, &[5.0, 4.0, 5.0]);
        assert_eq!(csr.row(4), (&[][..], &[][..]));
        assert_eq!(csr.row(99), (&[][..], &[][..]));
        assert_eq!(csr.col(99), (&[][..], &[][..]));
        // Bit-identical means, empty rows defaulted.
        let mean0 = m.user_mean(UserId(0)).unwrap();
        assert_eq!(csr.user_mean_or(0, f64::NAN).to_bits(), mean0.to_bits());
        assert_eq!(csr.user_mean_or(4, 2.5), 2.5);
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
        let csr = CsrRatings::from_matrix(&m);
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
                scan_similarities(&csr, &params, UserId(0), None, tile, &mut sims);
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
        let csr = CsrRatings::from_matrix(&m);
        let params = SimParams {
            similarity: Similarity::Cosine,
            min_overlap: 1,
            significance: 0,
        };
        let mut sims = Vec::new();
        let outcome = scan_similarities(&csr, &params, UserId(0), Some(&[1, 2]), 1, &mut sims);
        assert!(sims[1] != 0.0, "candidate 1 co-rates items 0 and 1");
        assert_eq!(sims[3], 0.0, "user 3 co-rates but is not a candidate");
        assert_eq!(sims[2], 0.0, "candidate 2 has no co-ratings");
        assert_eq!(outcome.scored, 1);
    }

    #[test]
    fn empty_row_scores_nothing() {
        let m = toy_matrix();
        let csr = CsrRatings::from_matrix(&m);
        let params = SimParams {
            similarity: Similarity::Pearson,
            min_overlap: 1,
            significance: 0,
        };
        let mut sims = Vec::new();
        let outcome = scan_similarities(&csr, &params, UserId(4), None, 8, &mut sims);
        assert_eq!(outcome.scored, 0);
        assert!(sims.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn autotune_picks_a_candidate_tile() {
        let m = toy_matrix();
        let csr = CsrRatings::from_matrix(&m);
        let params = SimParams {
            similarity: Similarity::Pearson,
            min_overlap: 2,
            significance: 0,
        };
        let report = autotune(&csr, &params);
        assert!(TILE_CANDIDATES.contains(&report.chosen));
        assert_eq!(report.sweep.len(), TILE_CANDIDATES.len());
    }

    #[test]
    fn engine_rebuilds_on_revision_change() {
        let mut m = toy_matrix();
        let engine = ScanEngine::default();
        let params = SimParams {
            similarity: Similarity::Pearson,
            min_overlap: 2,
            significance: 0,
        };
        let c1 = engine.csr(&m, &params);
        let c2 = engine.csr(&m, &params);
        assert!(Arc::ptr_eq(&c1, &c2), "same revision reuses the snapshot");
        assert_eq!(engine.stats().csr_builds, 1);
        m.rate(UserId(2), ItemId(0), 2.0).unwrap();
        let c3 = engine.csr(&m, &params);
        assert_eq!(c3.revision(), m.revision());
        assert_eq!(engine.stats().csr_builds, 2);
        assert_eq!(c3.col(0).0.len(), 4, "rebuilt snapshot sees the new rating");
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

    fn unrate_delta(m: &mut RatingsMatrix, u: u32, i: u32) -> RatingDelta {
        let prev = m.unrate(UserId(u), ItemId(i)).unwrap();
        assert!(prev.is_some(), "test deltas must change the matrix");
        RatingDelta {
            user: UserId(u),
            item: ItemId(i),
            prev,
            value: None,
            revision: m.revision(),
        }
    }

    #[test]
    fn patched_csr_is_bit_identical_to_fresh() {
        let mut m = toy_matrix();
        let base = CsrRatings::from_matrix(&m);
        let deltas = vec![
            rate_delta(&mut m, 4, 2, 3.0), // empty row gains a rating
            rate_delta(&mut m, 0, 2, 1.0), // insert mid-row
            rate_delta(&mut m, 0, 0, 2.0), // replace
            unrate_delta(&mut m, 1, 1),    // remove
            rate_delta(&mut m, 0, 2, 4.0), // re-rate the same cell
            unrate_delta(&mut m, 2, 2),    // row becomes empty
        ];
        let patched = base.apply_deltas(&deltas);
        let fresh = CsrRatings::from_matrix(&m);
        assert_eq!(patched.revision(), fresh.revision());
        assert_eq!(patched.row_ptr, fresh.row_ptr);
        assert_eq!(patched.row_items, fresh.row_items);
        assert_eq!(patched.col_ptr, fresh.col_ptr);
        assert_eq!(patched.col_users, fresh.col_users);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&patched.row_vals), bits(&fresh.row_vals));
        assert_eq!(bits(&patched.col_vals), bits(&fresh.col_vals));
        assert_eq!(bits(&patched.user_mean), bits(&fresh.user_mean));
    }

    #[test]
    fn engine_patches_when_delta_chain_covers_the_gap() {
        let mut m = toy_matrix();
        let engine = ScanEngine::default();
        let params = SimParams {
            similarity: Similarity::Pearson,
            min_overlap: 1,
            significance: 0,
        };
        engine.csr(&m, &params);
        let deltas = vec![rate_delta(&mut m, 2, 0, 4.0), rate_delta(&mut m, 2, 1, 5.0)];
        engine.notify_deltas(&deltas);
        assert_eq!(engine.stats().pending_deltas, 2);
        let patched = engine.csr(&m, &params);
        let stats = engine.stats();
        assert_eq!(stats.csr_builds, 1, "no second full build");
        assert_eq!(stats.csr_patches, 1);
        assert_eq!(stats.pending_deltas, 0);
        assert_eq!(stats.patched_since_build, 2);
        assert_eq!(patched.revision(), m.revision());
        // Patched scan results equal a from-scratch engine's.
        let fresh_engine = ScanEngine::default();
        let fresh = fresh_engine.csr(&m, &params);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        scan_similarities(&patched, &params, UserId(0), None, 64, &mut a);
        scan_similarities(&fresh, &params, UserId(0), None, 64, &mut b);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn unnotified_mutation_falls_back_to_full_rebuild() {
        let mut m = toy_matrix();
        let engine = ScanEngine::default();
        let params = SimParams {
            similarity: Similarity::Cosine,
            min_overlap: 1,
            significance: 0,
        };
        engine.csr(&m, &params);
        let _gap = rate_delta(&mut m, 3, 1, 2.0); // never notified
        let notified = vec![rate_delta(&mut m, 2, 0, 4.0)];
        engine.notify_deltas(&notified);
        let rebuilt = engine.csr(&m, &params);
        let stats = engine.stats();
        assert_eq!(stats.csr_patches, 0, "broken chain must not patch");
        assert_eq!(stats.csr_builds, 2);
        assert_eq!(rebuilt.revision(), m.revision());
        assert_eq!(stats.pending_deltas, 0, "stale backlog discarded");
    }

    #[test]
    fn drift_threshold_forces_full_rebuild() {
        let mut m = toy_matrix();
        let engine = ScanEngine::new(
            KernelConfig {
                tile: TileSize::Fixed(64),
                drift_threshold: 2,
            },
            IndexConfig::default(),
        );
        let params = SimParams {
            similarity: Similarity::Pearson,
            min_overlap: 1,
            significance: 0,
        };
        engine.csr(&m, &params);
        for round in 0..3u32 {
            let deltas = vec![rate_delta(&mut m, 2, 0, f64::from(round % 5) + 1.0)];
            engine.notify_deltas(&deltas);
            engine.csr(&m, &params);
        }
        let stats = engine.stats();
        assert_eq!(stats.csr_patches, 2, "threshold admits two deltas");
        assert_eq!(stats.csr_builds, 2, "third write crossed the threshold");
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
